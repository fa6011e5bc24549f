import dataclasses
import math
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtri

from eivbands import debias, lasso, nodewise
from eivbands.debias import (
    VARIANCE_CONVENTIONS,
    DebiasTable,
    debias_coordinate,
    graph_tables,
    run_inference,
    score_slope,
    score_values,
)
from eivbands.errors import DegeneracyError, InputError, NumericalError
from eivbands.lasso import Dataset, NoiseSpec, SolverConfig

TIGHT = SolverConfig(tol=1e-10, max_iter=50000)

# a table's per-target arrays, row k target k's
ROW_FIELDS = ("estimates", "slopes", "sds", "ci_low", "ci_high", "scores",
              "mus")


def loop_score(y, Z, noise_var, pilot_beta, mu, j, theta):
    # scalar-loop oracle for one observation's score, no vectorization
    n, p = Z.shape
    out = np.empty(n)
    for i in range(n):
        zj = Z[i, j]
        zmu = sum(Z[i, k] * mu[k] for k in range(p))
        zbeta = sum(Z[i, k] * pilot_beta[k] for k in range(p) if k != j)
        mgb = sum(mu[k] * noise_var[k] * pilot_beta[k]
                  for k in range(p) if k != j)
        out[i] = (zj - zmu) * (y[i] - zj * theta - zbeta) \
            + noise_var[j] * theta - mgb
    return out


def loop_slope(Z, noise_var, mu, j):
    n, p = Z.shape
    s = 0.0
    for i in range(n):
        zmu = sum(Z[i, k] * mu[k] for k in range(p))
        s += (Z[i, j] - zmu) * Z[i, j]
    return s / n - noise_var[j]


def random_problem(seed, n=12, p=4):
    gen = np.random.default_rng(seed)
    Z = gen.normal(size=(n, p))
    y = gen.normal(size=n)
    noise_var = gen.uniform(0.0, 0.3, size=p)
    pilot = gen.normal(size=p) * 0.5
    mu = gen.normal(size=p) * 0.3
    j = int(gen.integers(0, p))
    mu[j] = 0.0
    return y, Z, noise_var, pilot, mu, j


class TestScoreSlope:
    def test_simple_two_point(self):
        # z_j = (1, -1), no other columns involved, mu = 0:
        # slope = mean(z_j^2) - noise = 1 - 0.25
        Z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mu = np.zeros(2)
        assert score_slope(Z, np.array([0.25, 0.0]), mu, 0) == pytest.approx(
            0.75, abs=1e-15)

    def test_exact_cancellation(self):
        # mean z_j^2 equal to the noise variance gives slope 0
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert score_slope(Z, np.array([1.0, 0.0]), np.zeros(2), 0) == 0.0

    def test_matches_loop_oracle(self):
        for seed in range(5):
            y, Z, noise_var, pilot, mu, j = random_problem(seed)
            got = score_slope(Z, noise_var, mu, j)
            assert got == pytest.approx(loop_slope(Z, noise_var, mu, j),
                                        abs=1e-12)


class TestScoreValues:
    def test_matches_loop_oracle(self):
        for seed in range(5):
            y, Z, noise_var, pilot, mu, j = random_problem(seed)
            theta = 0.37
            got = score_values(y, Z, noise_var, pilot, mu, j, theta)
            want = loop_score(y, Z, noise_var, pilot, mu, j, theta)
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_pilot_j_entry_ignored(self):
        y, Z, noise_var, pilot, mu, j = random_problem(7)
        pilot2 = pilot.copy()
        pilot2[j] = 123.0  # nuisance uses beta with the j-th entry zeroed
        npt.assert_array_equal(
            score_values(y, Z, noise_var, pilot, mu, j, 0.1),
            score_values(y, Z, noise_var, pilot2, mu, j, 0.1))


class TestDebiasCoordinate:
    def test_no_nuisance_is_ratio_of_moments(self):
        # mu = 0, pilot = 0, noise 0: theta = sum(z_j y) / sum(z_j^2)
        gen = np.random.default_rng(2)
        Z = gen.normal(size=(15, 3))
        y = gen.normal(size=15)
        got = debias_coordinate(y, Z, np.zeros(3), np.zeros(3), np.zeros(3), 1)
        want = (Z[:, 1] @ y) / (Z[:, 1] @ Z[:, 1])
        assert got == pytest.approx(want, rel=1e-12)

    def test_root_of_mean_score(self):
        for seed in range(8):
            y, Z, noise_var, pilot, mu, j = random_problem(seed)
            theta = debias_coordinate(y, Z, noise_var, pilot, mu, j)
            psi = score_values(y, Z, noise_var, pilot, mu, j, theta)
            scale = np.abs(psi).max() + 1e-12
            assert abs(psi.mean()) <= 1e-10 * scale

    def test_degenerate_slope_raises(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegeneracyError) as exc:
            debias_coordinate(np.ones(2), Z, np.array([1.0, 0.0]),
                              np.zeros(2), np.zeros(2), 0)
        assert exc.value.coordinate == 0


def variance(psi, slope):
    # the plug-in variance slope^{-2} mean(psi^2) of one row of scores
    return float(debias._variances(np.asarray(psi)[None],
                                   np.array([slope]))[0])


def zero_variance_problem():
    # target column 1, which y equals twice, observed without noise: the
    # slope is 2.5 and the root exactly 2, where the pilot sits too, and
    # there every score is 0
    Z = np.array([[3.0, 1.0], [1.0, -1.0], [0.5, 2.0], [-1.0, -2.0]])
    return 2.0 * Z[:, 1], Z, np.zeros(2), \
        SimpleNamespace(beta=np.array([0.0, 2.0]))


def one_target(y, Z, noise_var, pilot, j, mu, alpha=0.05,
               variance_at="debiased"):
    # the table of one direction, a one-row batch
    return debias._table(y, Z, noise_var, pilot, [(j, mu, None)], alpha,
                         variance_at)


class TestPluginVariance:
    def test_constant_scores(self):
        # all scores equal to c with unit slope: variance = c^2
        assert variance(np.full(9, 3.0), 1.0) == 9.0

    def test_doubling_scores_quadruples(self):
        gen = np.random.default_rng(4)
        psi = gen.normal(size=20)
        assert variance(2 * psi, 0.7) == pytest.approx(
            4 * variance(psi, 0.7), rel=1e-14)

    def test_matches_loop_oracle(self):
        gen = np.random.default_rng(6)
        psi = gen.normal(size=13)
        slope = 0.42
        want = sum(float(v) ** 2 for v in psi) / 13 / slope ** 2
        assert variance(psi, slope) == pytest.approx(want, rel=1e-13)

    def test_zero_variance_degenerate(self):
        # a target whose scores are all 0 at its center raises, naming it
        y, Z, noise_var, pilot = zero_variance_problem()
        for variance_at in VARIANCE_CONVENTIONS:
            with pytest.raises(DegeneracyError,
                               match="variance is exactly zero for column 1"
                               ) as exc:
                one_target(y, Z, noise_var, pilot, 1, np.zeros(2),
                           variance_at=variance_at)
            assert exc.value.coordinate == 1
        with pytest.raises(DegeneracyError, match="for column 3") as exc:
            debias._check_variance(0.0, 3)
        assert exc.value.coordinate == 3


def interval_table(alpha, copies=1):
    # the one-target table of a fixed pilot and direction, on the rows of a
    # small problem repeated `copies` times, which leaves every mean (so the
    # estimate and sd) the same up to rounding
    y, Z, noise_var, pilot_beta, mu, j = random_problem(23, n=30)
    return one_target(np.tile(y, copies), np.tile(Z, (copies, 1)),
                      noise_var, SimpleNamespace(beta=pilot_beta), j, mu,
                      alpha)


def half_width(table):
    return (table.ci_high[0] - table.ci_low[0]) / 2.0


class TestPointwiseCI:
    def test_frozen_quantile(self):
        table = interval_table(0.05)
        # half width = 1.959964 * sd / sqrt(n)
        assert half_width(table) == pytest.approx(
            1.959964 * table.sds[0] / math.sqrt(30), rel=5e-6)
        assert table.ci_low[0] < table.estimates[0] < table.ci_high[0]

    def test_quantile_full_precision(self):
        table = interval_table(0.05)
        est, lo, hi = table.estimates[0], table.ci_low[0], table.ci_high[0]
        half = ndtri(0.975) * table.sds[0] / math.sqrt(30)
        assert hi - est == pytest.approx(half, rel=1e-14)
        assert est - lo == pytest.approx(half, rel=1e-14)

    def test_narrows_with_alpha_and_n(self):
        w1 = half_width(interval_table(0.05))
        w2 = half_width(interval_table(0.10))
        w3 = half_width(interval_table(0.05, copies=4))
        assert w2 < w1 and w3 == pytest.approx(w1 / 2, rel=1e-12)

    def test_bad_inputs(self):
        for alpha in (1.5, 0.0, 1.0):
            with pytest.raises(InputError, match="alpha"):
                interval_table(alpha)


def small_instance(seed=0, n=40, p=5, noise_sd=0.4):
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, p))
    beta0 = np.array([1.0, -0.5, 0.0, 0.8, 0.0])[:p]
    y = x @ beta0 + 0.3 * gen.normal(size=n)
    Z = x + noise_sd * gen.normal(size=(n, p))
    return Dataset(y=y, Z=Z), NoiseSpec.known(np.full(p, noise_sd ** 2))


class TestRunInference:
    def test_score_zero_identity_all_cells(self):
        data, noise = small_instance(3)
        table = run_inference(data, noise, [0, 2, 4], cfg=TIGHT)
        for j, mu, est in zip(table.targets, table.mus, table.estimates):
            raw = score_values(data.y, data.Z, noise.noise_var,
                               table.pilot.beta, mu, j, est)
            scale = np.abs(raw).max() + 1e-12
            assert abs(raw.mean()) <= 1e-10 * scale

    def test_standardized_scores_default_convention(self):
        data, noise = small_instance(9)
        table = run_inference(data, noise, [1, 3], cfg=TIGHT)
        for scores in table.scores:
            m = scores.mean()
            assert abs(m) <= 1e-10 * (1 + np.abs(scores).max())
            assert np.mean(scores ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_pilot_convention_differs_but_close(self):
        data, noise = small_instance(11)
        t_deb = run_inference(data, noise, [0], cfg=TIGHT)
        t_pil = run_inference(data, noise, [0], cfg=TIGHT,
                              variance_at="pilot")
        assert t_deb.estimates[0] == t_pil.estimates[0]
        assert t_deb.sds[0] != t_pil.sds[0]
        assert t_deb.sds[0] == pytest.approx(t_pil.sds[0], rel=0.2)

    def test_classical_debias_reduction_at_zero_noise(self):
        # with noise_var = 0 the estimate equals the classical one-step
        # debiased lasso computed directly from the same pilot and direction
        data, noise0 = small_instance(5, noise_sd=0.0)
        zero = NoiseSpec.known(np.zeros(5))
        table = run_inference(data, zero, [0, 1, 2, 3, 4], cfg=TIGHT)
        y, Z = data.y, data.Z
        n = data.n
        for j, mu, est in zip(table.targets, table.mus, table.estimates):
            resid_dir = Z[:, j] - Z @ mu
            full_resid = y - Z @ table.pilot.beta
            denom = resid_dir @ Z[:, j] / n
            classical = table.pilot.beta[j] + \
                (resid_dir @ full_resid / n) / denom
            assert est == pytest.approx(classical, abs=1e-10)

    def test_response_scaling_equivariance_debias_step(self):
        # with the direction and pilot fixed, doubling (y, pilot) doubles the
        # estimate and sd and leaves standardized scores unchanged
        y, Z, noise_var, pilot, mu, j = random_problem(19, n=30)
        t1 = debias_coordinate(y, Z, noise_var, pilot, mu, j)
        t2 = debias_coordinate(2.0 * y, Z, noise_var, 2.0 * pilot, mu, j)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)
        s1 = score_slope(Z, noise_var, mu, j)
        v1 = variance(score_values(y, Z, noise_var, pilot, mu, j, t1), s1)
        v2 = variance(
            score_values(2.0 * y, Z, noise_var, 2.0 * pilot, mu, j, t2), s1)
        assert np.sqrt(v2) == pytest.approx(2.0 * np.sqrt(v1), rel=1e-12)
        z1 = -score_values(y, Z, noise_var, pilot, mu, j, t1) / (np.sqrt(v1) * s1)
        z2 = -score_values(2.0 * y, Z, noise_var, 2.0 * pilot, mu, j, t2) \
            / (np.sqrt(v2) * s1)
        npt.assert_allclose(z2, z1, rtol=0, atol=1e-10)

    def test_response_scaling_equivariance_pipeline_unpenalized(self):
        # penalty 0 decouples the tuning from the response scale, so the
        # whole pipeline is scale equivariant
        data, noise = small_instance(13)
        cfg = SolverConfig(penalty=0.0, radius=np.inf, tol=1e-11,
                           max_iter=100000, truncation=0.0)
        t1 = run_inference(data, noise, [0, 2], cfg=cfg)
        t2 = run_inference(Dataset(y=2.0 * data.y, Z=data.Z), noise, [0, 2],
                           cfg=cfg)
        npt.assert_allclose(t2.estimates, 2 * t1.estimates, rtol=1e-9)
        npt.assert_allclose(t2.sds, 2 * t1.sds, rtol=1e-9)
        npt.assert_allclose(t2.scores, t1.scores, rtol=0, atol=1e-10)

    def test_degenerate_design_raises_with_coordinate(self):
        # orthogonal design whose second moment equals the claimed noise
        Z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        data = Dataset(y=np.array([1.0, 0.5, -0.5, -1.0]), Z=Z)
        noise = NoiseSpec.known(np.array([1.0, 1.0]))
        big = SolverConfig(penalty=50.0)  # forces mu = 0 and pilot = 0
        with pytest.raises(DegeneracyError) as exc:
            run_inference(data, noise, [0], cfg=big)
        assert exc.value.coordinate == 0

    def test_input_validation(self):
        data, noise = small_instance(1)
        with pytest.raises(InputError):
            run_inference(data, noise, [])
        with pytest.raises(InputError):
            run_inference(data, noise, [0, 0])
        with pytest.raises(InputError):
            run_inference(data, noise, [99])
        with pytest.raises(InputError):
            run_inference(data, noise, [0], alpha=0.0)
        with pytest.raises(InputError):
            run_inference(data, noise, [0], variance_at="elsewhere")
        short = NoiseSpec.known(np.zeros(3))
        with pytest.raises(InputError):
            run_inference(data, short, [0])

    def test_rejects_non_integer_targets(self):
        # a fractional or boolean target is refused, not truncated to a
        # column
        data, noise = small_instance(1)
        for targets in ([1.9, 3.2], [True], [0, 2.0]):
            with pytest.raises(InputError, match="must be an integer"):
                run_inference(data, noise, targets)

    def test_pilot_and_nodewise_fits_share_one_resolved_config(
            self, monkeypatch):
        # the penalty is resolved once, for the n x p design: the pilot's
        # solver and every nodewise stack get that one config, and every
        # fit reports its penalty bit for bit
        configs, fits = record_configs(monkeypatch)
        data, noise = small_instance(2)
        table = run_inference(data, noise, range(5),
                              cfg=SolverConfig(penalty_scale=0.7))
        want = lasso.default_penalty(data.n, data.p) * 0.7
        assert len(configs) == 2 and configs[0] is configs[1]
        assert configs[0].penalty == want
        assert len(fits) == 5
        for fit in (table.pilot, *fits):
            assert np.float64(fit.penalty).tobytes() == \
                np.float64(want).tobytes()

    def test_table_shape(self):
        data, noise = small_instance(2)
        table = run_inference(data, noise, [4, 1], cfg=TIGHT)
        assert table.targets == (4, 1)
        assert table.scores.shape == (2, data.n)
        assert table.mus.shape == (2, 5)
        assert isinstance(table, DebiasTable)
        assert np.all(table.ci_low < table.estimates)
        assert np.all(table.estimates < table.ci_high)
        assert table.mus[[0, 1], [4, 1]].tolist() == [0.0, 0.0]


def record_configs(monkeypatch):
    # the config of every solve (the scalar pilot, each stack and the graph
    # reuse test), in order, and the results of the stacked rows, through
    # the names debias and nodewise bind
    configs, fits = [], []
    single = debias.fit_corrected_lasso
    stack = nodewise.fit_corrected_lasso_stack
    reuse = debias._edges_solved_by_pilots

    def recorded_single(b, G, cfg):
        configs.append(cfg)
        return single(b, G, cfg)

    def recorded_stack(b, G, cfg, pins=None):
        configs.append(cfg)
        out = stack(b, G, cfg, pins)
        fits.extend(out)
        return out

    def recorded_reuse(G, pilots, cfg):
        configs.append(cfg)
        return reuse(G, pilots, cfg)
    monkeypatch.setattr(debias, "fit_corrected_lasso", recorded_single)
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", recorded_stack)
    monkeypatch.setattr(debias, "_edges_solved_by_pilots", recorded_reuse)
    return configs, fits


def partners(p, k):
    # a source's cells, in the columns of the graph's design
    return tuple(t for t in range(p) if t != k)


def graph_instance():
    rng = np.random.default_rng(41)
    Z = rng.normal(size=(50, 6))
    Z[:, 1:] += 0.6 * Z[:, :-1]
    return Z, np.full(6, 0.1), [4, 0, 2, 5, 1, 3]


# the 6 pilots in one stack and the refit edges in another, in stacks of
# 15 rows, or in stacks of 3 rows that cut the pilots and the refits
GRAPH_BUDGETS = [pytest.param(None, None, id="one_stack"),
                 pytest.param(15 * 8 * 6, 15, id="stacks_of_3"),
                 pytest.param(3 * 8 * 6, 3, id="rows_of_3")]


def record_stacks(monkeypatch):
    # the pins of every row of each stacked solve, through the name
    # nodewise binds: a pilot pins (t,), a refit edge (t, k)
    stacks = []
    original = nodewise.fit_corrected_lasso_stack

    def recorded(b, G, cfg, pins=None):
        stacks.append([tuple(int(c) for c in row) for row in pins])
        return original(b, G, cfg, pins)
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", recorded)
    return stacks


def refit_edges(stacks):
    # the edges (t, k) of the recorded stacks
    return {row for stack in stacks for row in stack if len(row) == 2}


def edge_b(G, t, k):
    # edge (t, k)'s b: column t of G with entries t and k read as 0
    b = G[:, t].copy()
    b[[t, k]] = 0.0
    return b


def edge_kkt_residual(G, n, t, k, mu, cfg, inside=False):
    # KKT residual of edge (t, k) at mu, as the edge's own row computes
    # it: pinned at t and k, on its default radius unless cfg sets one,
    # or with inside=True the residual inside the ball, with no weight on
    # its normal cone
    b = edge_b(G, t, k)
    pin = np.zeros((1, len(G)), dtype=bool)
    pin[0, [t, k]] = True
    radius = np.inf if inside else cfg.radius or lasso.default_radius(G, b)
    grad = lasso._matvec(G, mu[None], pin) - b
    penalty = lasso.resolve_config(cfg, n, len(G) - 1).penalty
    return lasso._kkt_residual_stack(mu[None], grad, penalty,
                                     np.array([radius]))[0]


# A stack forms its rows' G x in one product, whose last bits depend on
# how many rows share it, so a stacked row agrees with the row solved alone
# up to this bound, relative to 1 + the size of what is compared.
ROUNDING = 1e-10


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.abs(got - want).max() <= ROUNDING * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("budget, rows", GRAPH_BUDGETS)
def test_graph_tables_equal_rows_solved_alone(monkeypatch, budget, rows):
    # every pilot and edge row of the graph's one Gram, however the rows
    # are stacked, is the row solved alone up to ROUNDING, with the same
    # iterations and radius, and so is every cell; the same stacks give
    # the same bytes
    Z, gamma, sources = graph_instance()
    with monkeypatch.context() as m:
        m.setattr(nodewise, "STACK_BUDGET_BYTES", 0)
        assert nodewise.stack_rows(6) == 1
        alone = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
        assert nodewise.stack_rows(6) == rows
    tables = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
    again = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
    for table, twin, want in zip(tables, again, alone, strict=True):
        assert table.scores.tobytes() == twin.scores.tobytes()
        assert table.pilot.beta.tobytes() == twin.pilot.beta.tobytes()
        for field in ("iterations", "converged", "radius"):
            assert getattr(table.pilot, field) == getattr(want.pilot, field)
        for field in ("beta", "objective", "kkt_residual"):
            assert_close(getattr(table.pilot, field),
                         getattr(want.pilot, field))
        assert table.targets == want.targets
        for field in ("estimates", "sds", "slopes", "scores", "mus"):
            assert_close(getattr(table, field), getattr(want, field))
        assert np.array_equal(table.mus != 0.0, want.mus != 0.0)


@pytest.mark.parametrize("budget, rows", GRAPH_BUDGETS)
def test_graph_tables_equal_per_source_inference(monkeypatch, budget, rows):
    # every source's table is its own run_inference up to the solver
    # tolerance: the rows of the graph's Gram and the cells of the graph's
    # design sum over p terms where the source's own sum over p - 1, and an
    # edge that takes its partner's pilot as its direction is a solution of
    # its problem to TIGHT's tolerance, not the solver's iterate, so
    # estimates, sds and CIs agree to 1e-9 standard errors.  Every pilot
    # takes the same iterations, a refit edge's direction agrees to 1e-12,
    # and a reused edge's direction is pilot t's beta bit for bit, with the
    # edge's KKT residual there within tolerance.  The graph's table is in
    # the columns of the graph's design, with the pilot and every direction
    # exactly 0 at the source
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
        assert nodewise.stack_rows(6) == rows
    stacks = record_stacks(monkeypatch)
    Z, gamma, sources = graph_instance()
    G = lasso.corrected_gram(Z, gamma)
    tables = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
    refits = refit_edges(stacks)
    pilot = {k: table.pilot for k, table in zip(sources, tables)}
    assert 0 < len(refits) < 30
    for j, table in zip(sources, tables, strict=True):
        keep = np.arange(6) != j
        want = run_inference(Dataset(y=Z[:, j], Z=Z[:, keep]),
                             NoiseSpec.known(gamma[keep]), range(5), 0.1,
                             TIGHT, "pilot")
        assert (table.pilot.iterations, table.pilot.penalty) == \
            (want.pilot.iterations, want.pilot.penalty)
        npt.assert_allclose(table.pilot.radius, want.pilot.radius,
                            rtol=1e-12)
        assert table.pilot.beta[j] == 0.0
        npt.assert_allclose(table.pilot.beta[keep], want.pilot.beta, rtol=0,
                            atol=1e-12)
        npt.assert_array_equal(table.noise_var, gamma)
        assert table.targets == tuple(np.flatnonzero(keep))
        assert want.targets == tuple(range(5))
        se = want.sds / np.sqrt(table.n)
        for field in ("estimates", "sds", "ci_low", "ci_high"):
            assert np.all(abs(getattr(table, field) - getattr(want, field))
                          <= 1e-9 * se), field
        assert not table.mus[:, j].any()
        for t, mu, want_mu in zip(table.targets, table.mus, want.mus,
                                  strict=True):
            if (t, j) in refits:
                npt.assert_allclose(mu[keep], want_mu, rtol=0, atol=1e-12)
            else:
                assert mu.tobytes() == pilot[t].beta.tobytes()
                assert edge_kkt_residual(G, 50, t, j, mu,
                                         TIGHT) <= TIGHT.tol


def test_graph_errors_keep_source_order(monkeypatch):
    # every pilot is solved before the first table, but a source's failed
    # pilot raises only when its table is due, after every earlier
    # source's table was yielded
    Z, gamma, sources = graph_instance()
    original = lasso.fit_corrected_lasso_stack
    failing = sources[2]

    def fail_pilot(b, G, cfg, pins=None):
        fits = original(b, G, cfg, pins)
        return [NumericalError("forced pilot failure")
                if tuple(pin) == (failing,) else fit
                for pin, fit in zip(pins, fits)]
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", fail_pilot)
    tables = graph_tables(Z, gamma, sources, 0.1, TIGHT)
    assert [next(tables).targets for _ in range(2)] == \
        [partners(6, k) for k in sources[:2]]
    with pytest.raises(NumericalError, match="forced pilot failure"):
        next(tables)


def test_failed_partner_pilot_refits_its_edges(monkeypatch):
    # column 2's pilot fails, but 2 is no source: its edges are refit, the
    # graph succeeds, and only those edges differ from the graph whose
    # pilot 2 solved
    Z, gamma, _ = graph_instance()
    sources = [4, 0, 5]
    want = list(graph_tables(Z, gamma, sources, 0.1, TIGHT))
    original = lasso.fit_corrected_lasso_stack

    def fail_pilot(b, G, cfg, pins=None):
        fits = original(b, G, cfg, pins)
        return [NumericalError("forced pilot failure")
                if tuple(pin) == (2,) else fit
                for pin, fit in zip(pins, fits)]
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", fail_pilot)
    stacks = record_stacks(monkeypatch)
    tables = list(graph_tables(Z, gamma, sources, 0.1, TIGHT))
    assert {(2, k) for k in sources} <= refit_edges(stacks)
    for table, before in zip(tables, want, strict=True):
        assert table.pilot.beta.tobytes() == before.pilot.beta.tobytes()
        se = before.sds / np.sqrt(table.n)
        assert np.all(abs(table.estimates - before.estimates) <= 1e-9 * se)
        for t, mu, was in zip(table.targets, table.mus, before.mus,
                              strict=True):
            if t != 2:
                assert mu.tobytes() == was.tobytes()


def test_graph_over_some_sources_gives_their_full_graph_tables():
    # a source's table does not depend on which other columns are sources:
    # every column's pilot is solved, so the same edges take the same
    # pilots, and a node reads its pilot's radius as it was resolved
    Z, gamma, _ = graph_instance()
    full = list(graph_tables(Z, gamma, range(6), 0.1, TIGHT))
    some = list(graph_tables(Z, gamma, [4, 1], 0.1, TIGHT))
    for k, table in zip([4, 1], some, strict=True):
        want = full[k]
        assert table.pilot.beta.tobytes() == want.pilot.beta.tobytes()
        for field in ("objective", "iterations", "kkt_residual", "radius"):
            assert getattr(table.pilot, field) == getattr(want.pilot, field)
        assert table.targets == want.targets
        for field in ("estimates", "sds", "mus"):
            assert getattr(table, field).tobytes() == \
                getattr(want, field).tobytes()


def reuse_oracle(G, n, pilots, cfg):
    # edge by edge: pilot t's beta solves edge (t, k) when it is 0 at k,
    # strictly inside the radius the edge's own row resolves (its default
    # radius, or the explicit one), and the edge's KKT residual inside the
    # ball is within tolerance there
    p = len(G)
    reused = set()
    for t, beta in pilots.items():
        for k in range(p):
            if k == t or beta[k] != 0.0:
                continue
            radius = cfg.radius or lasso.default_radius(G, edge_b(G, t, k))
            if np.abs(beta).sum() < radius and edge_kkt_residual(
                    G, n, t, k, beta, cfg, inside=True) <= cfg.tol:
                reused.add((t, k))
    return reused


def ar_nodes(n, p, seed=7):
    rng = np.random.default_rng(seed)
    x = np.empty((n, p))
    x[:, 0] = rng.normal(size=n)
    for k in range(1, p):
        x[:, k] = 0.5 * x[:, k - 1] + np.sqrt(0.75) * rng.normal(size=n)
    return x + 0.5 * rng.normal(size=(n, p)), np.full(p, 0.25)


def strong_ar_nodes():
    # strong signals: N(0, 1) columns, each with half the one before added,
    # observed without noise, n = 400, p = 30, gamma = 0.25
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(400, 30))
    Z[:, 1:] += 0.5 * Z[:, :-1]
    return Z, np.full(30, 0.25)


# (design, cfg) of each graph whose reused edges are checked edge by edge
GRAPH_REUSE_CASES = {
    "default": (lambda: ar_nodes(120, 9), SolverConfig()),
    "capped": (lambda: ar_nodes(120, 9), SolverConfig(max_iter=7)),
    "small_radius": (lambda: ar_nodes(120, 9), SolverConfig(radius=0.05)),
    "strong_signal": (strong_ar_nodes, SolverConfig()),
}


@pytest.mark.parametrize("case", list(GRAPH_REUSE_CASES))
def test_graph_refits_the_edges_its_pilots_do_not_solve(monkeypatch, case):
    # a graph refits exactly the edges the rule, checked edge by edge,
    # leaves to a refit: every edge whose pilot is nonzero at the source,
    # sits on or over the radius the edge's own row resolves, or stopped
    # unconverged, and no other.  At 7 iterations some pilot stops
    # unconverged, at radius 0.05 some pilot ends on its ball, and with
    # strong signals, whose pilots' l1 norms come close to the edges'
    # radii, fewer than a quarter of the edges are refit
    design, cfg = GRAPH_REUSE_CASES[case]
    Z, gamma = design()
    n, p = Z.shape
    G = lasso.corrected_gram(Z, gamma)
    stacks = record_stacks(monkeypatch)
    tables = list(graph_tables(Z, gamma, range(p), cfg=cfg))
    assert stacks[0] == [(t,) for t in range(p)]
    refits = refit_edges(stacks)
    assert sum(map(len, stacks[1:])) == len(refits)
    pilots = {k: table.pilot.beta for k, table in enumerate(tables)}
    reused = reuse_oracle(G, n, pilots, cfg)
    edges = {(t, k) for k in range(p) for t in range(p) if t != k}
    assert refits == edges - reused
    for t, k in edges:
        if pilots[t][k] != 0.0:
            assert (t, k) in refits
        if cfg.radius is not None and np.abs(pilots[t]).sum() >= cfg.radius:
            assert (t, k) in refits
        if not tables[t].pilot.converged:
            assert (t, k) in refits
    for t, k in reused:
        if cfg.radius is None:
            assert np.abs(pilots[t]).sum() < \
                lasso.default_radius(G, edge_b(G, t, k))
    if cfg.max_iter == 7:
        assert not all(table.pilot.converged for table in tables)
    elif cfg.radius is not None:
        assert any(np.abs(beta).sum() >= 0.05 * (1 - 1e-9)
                   for beta in pilots.values())
    elif case == "strong_signal":
        assert 0 < len(refits) < len(edges) // 4
    else:
        assert 0 < len(refits) < len(edges) // 2


def test_an_edge_drops_its_source_from_the_pilot_residual():
    # pilot 0 left at 0 where only column k's gradient exceeds the
    # penalty: 0 is a stationary point of edge (0, k), whose problem drops
    # k, and of no other edge of 0; failed pilots solve no edge
    Z, gamma = ar_nodes(120, 9)
    G = lasso.corrected_gram(Z, gamma)
    a = np.abs(G[1:, 0])
    k = 1 + int(np.argmax(a))
    second, first = np.sort(a)[-2:]
    cfg = SolverConfig(penalty=(first + second) / 2)
    pilots = [nodewise.NodewiseResult(j=0, mu=np.zeros(9), fit=None),
              *[NumericalError("failed pilot")] * 8]
    reused = debias._edges_solved_by_pilots(G, pilots, cfg)
    assert np.flatnonzero(reused.ravel()).tolist() == [k]
    assert reuse_oracle(G, 120, {0: np.zeros(9)}, cfg) == {(0, k)}


def test_edge_radius_is_the_one_its_row_resolves():
    # pilot t has one nonzero entry, at t + 1, and its l1 norm equals
    # exactly the radius that edge (t, t + 2)'s own row resolves: that edge
    # is refit, and every edge whose radius is larger by more than
    # rounding is reused, so pilot t's radius sum less term k never rounds
    # a pilot on the edge's ball inside it.  The tolerance passes every
    # residual, which leaves the radius as the test; at p = 40 the radii
    # are pairwise sums, and some diagonal entries of G are negative
    p = 40
    Z, _ = ar_nodes(60, p, seed=3)
    gamma = np.linspace(0.1, 1.5, p)
    G = lasso.corrected_gram(Z, gamma)
    assert (np.diag(G) < 0).any()
    radius = np.array([[lasso.default_radius(G, edge_b(G, t, k)) if k != t
                        else np.inf for k in range(p)] for t in range(p)])
    pilots = []
    for t in range(p):
        mu = np.zeros(p)
        mu[(t + 1) % p] = radius[t, (t + 2) % p]
        pilots.append(nodewise.NodewiseResult(j=t, mu=mu, fit=None))
    reused = debias._edges_solved_by_pilots(
        G, pilots, SolverConfig(penalty=0.0, tol=1e300))
    assert reused.sum() > p * p // 2
    for t in range(p):
        l1 = radius[t, (t + 2) % p]
        assert not reused[t, (t + 2) % p]
        for k in range(p):
            if reused[t, k]:
                assert l1 < radius[t, k]
            elif k not in (t, (t + 1) % p):
                assert l1 >= radius[t, k] * (1 - 1e-12)


def test_graph_rejects_duplicate_sources():
    # a repeated source would yield its table, and band its edges, twice
    Z, gamma, _ = graph_instance()
    with pytest.raises(InputError, match="source set has duplicates"):
        list(graph_tables(Z, gamma, [0, 0]))
    with pytest.raises(InputError, match="source set has duplicates"):
        next(graph_tables(Z, gamma, [2, 0, 2]))


def test_graph_rejects_non_integer_sources():
    # a fractional or boolean source is refused, not truncated to a column
    Z, gamma, _ = graph_instance()
    for sources in ([2.7], [True], [0, 1.0]):
        with pytest.raises(InputError, match="must be an integer"):
            next(graph_tables(Z, gamma, sources))


@pytest.mark.parametrize("budget", [None, 3 * 8 * 6],
                         ids=["one_stack", "rows_of_3"])
def test_graph_solves_every_row_at_one_resolved_config(monkeypatch, budget):
    # the graph resolves its config once, for the p - 1 columns every
    # pilot and edge regresses on: the pilot stream, the reuse test and
    # the refit stream get that one object, and every pilot and refit edge
    # reports its penalty bit for bit
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
    configs, fits = record_configs(monkeypatch)
    stacks = record_stacks(monkeypatch)
    Z, gamma, sources = graph_instance()
    n, p = Z.shape
    tables = list(graph_tables(Z, gamma, sources, 0.1,
                               SolverConfig(penalty_scale=0.7)))
    want = lasso.default_penalty(n, p - 1) * 0.7
    assert all(cfg is configs[0] for cfg in configs)
    assert configs[0].penalty == want
    assert len(fits) == p + len(refit_edges(stacks)) > p
    for fit in (*(table.pilot for table in tables), *fits):
        assert np.float64(fit.penalty).tobytes() == \
            np.float64(want).tobytes()


def test_graph_pilot_that_never_moves_reports_its_block_radius():
    # at six times the default penalty no pilot leaves 0, and each still
    # reports the default radius of its source's (-k, -k) block, bit for bit
    Z, gamma, sources = graph_instance()
    G = lasso.corrected_gram(Z, gamma)
    tables = graph_tables(Z, gamma, sources, cfg=SolverConfig(
        penalty_scale=6.0))
    for k, table in zip(sources, tables, strict=True):
        keep = np.arange(6) != k
        assert table.pilot.iterations == 0
        assert table.pilot.radius == lasso.default_radius(
            G[np.ix_(keep, keep)], G[keep, k])


def test_bench_size_graph_is_one_stack(monkeypatch):
    # at p = 30 the 30 pilots of a graph are one stacked solve, and the
    # edges their pilots leave unsolved are one more
    stacks = record_stacks(monkeypatch)
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(400, 30))
    Z[:, 1:] += 0.5 * Z[:, :-1]
    tables = list(graph_tables(Z, np.full(30, 0.25), range(30)))
    assert [len(stack) for stack in stacks] == [30, len(stacks[1])]
    assert stacks[0] == [(t,) for t in range(30)]
    assert 0 < len(stacks[1]) < 870 <= nodewise.stack_rows(30)
    assert sum(len(t.targets) for t in tables) == 870


def count_gram_calls(monkeypatch):
    # rebinds every name a loaded eivbands module holds the Gram under, so
    # a call is counted whichever module makes it
    calls = []
    original = lasso.corrected_gram

    def counted(Z, noise_var):
        calls.append(np.shape(Z)[1])
        return original(Z, noise_var)
    for name, module in list(sys.modules.items()):
        if name.startswith("eivbands") and \
                getattr(module, "corrected_gram", None) is original:
            monkeypatch.setattr(module, "corrected_gram", counted)
    return calls


@pytest.mark.parametrize("budget", [None, 0], ids=["stacked", "one_by_one"])
@pytest.mark.parametrize("mode", ["known", "mar"])
def test_one_corrected_gram_per_inference(monkeypatch, budget, mode):
    # the pilot's Gram is the only one: every nodewise subproblem slices it
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
    data, noise = small_instance(3)
    if mode == "mar":
        mask = np.random.default_rng(4).uniform(size=data.Z.shape) >= 0.2
        data = Dataset(y=data.y, Z=np.where(mask, data.Z, 0.0), mask=mask)
        noise = NoiseSpec.mar()
    calls = count_gram_calls(monkeypatch)
    table = run_inference(data, noise, range(5), cfg=TIGHT)
    assert table.targets == (0, 1, 2, 3, 4)
    assert calls == [5]


@pytest.mark.parametrize("budget", [None, 0], ids=["stacked", "one_by_one"])
def test_one_corrected_gram_per_graph(monkeypatch, budget):
    # every source's pilot and edge regressions are rows of one Gram
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
    Z = np.random.default_rng(43).normal(size=(40, 6))
    calls = count_gram_calls(monkeypatch)
    tables = list(graph_tables(Z, np.full(6, 0.1), [3, 0, 5], cfg=TIGHT))
    assert [t.targets for t in tables] == [partners(6, k) for k in (3, 0, 5)]
    assert calls == [6]


def test_no_stack_outgrows_the_row_budget(monkeypatch):
    # every solve is a stack of at most stack_rows(p) rows: inference's
    # pilot and nodewise rows and the graph's pilot and edge jobs, so the
    # row budget bounds every (rows, p) array of the solver, the matvecs'
    # and the KKT residual's alike
    monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", 3 * 8 * 5)
    assert nodewise.stack_rows(5) == 3
    stacks, arrays = [], []

    def count(module, name, rows_of, log):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            log.append(rows_of(args))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    count(debias, "fit_corrected_lasso", lambda args: 1, stacks)
    count(nodewise, "fit_corrected_lasso_stack", lambda args: len(args[0]),
          stacks)
    count(lasso, "_matvec", lambda args: len(args[1]), arrays)
    count(lasso, "_kkt_residual_stack", lambda args: len(args[0]), arrays)

    data, noise = small_instance(3)
    run_inference(data, noise, range(5), cfg=TIGHT)
    assert stacks == [1, 3, 2]  # the pilot, then the nodewise rows
    stacks.clear()
    list(graph_tables(data.Z, np.full(5, 0.1), range(5), cfg=TIGHT))
    # the 5 pilots, then the refit edges
    assert stacks[:2] == [3, 2] and len(stacks) > 2
    assert max(stacks) == 3 and max(arrays) == 3


def test_solver_stacks_evaluate_no_empty_kkt_batch(monkeypatch):
    # a stack's pass in which no row is due for its KKT check evaluates no
    # residual: every call gets at least one row, in inference's nodewise
    # stack and in the graph's pilot and edge stacks alike
    rows = []
    original = lasso._kkt_residual_stack

    def counted(beta, *args):
        rows.append(len(beta))
        return original(beta, *args)
    monkeypatch.setattr(lasso, "_kkt_residual_stack", counted)
    data, noise = small_instance(3)
    run_inference(data, noise, range(5), cfg=TIGHT)
    assert len(rows) > 2 and min(rows) > 0
    rows.clear()
    Z, gamma = ar_nodes(120, 9)
    list(graph_tables(Z, gamma, range(9)))
    assert len(rows) > 2 and min(rows) > 0


def cell_oracle(y, Z, noise_var, pilot_beta, j, mu, alpha, variance_at):
    # one cell formed alone, by the per-cell formulas: two gemvs, every dot
    # on a contiguous copy of z_j, the slope squared as slope * slope
    n = Z.shape[0]
    z_j = Z[:, j].copy()
    resid_dir = z_j - Z @ mu
    slope = float(resid_dir @ z_j / n - noise_var[j])
    beta = np.array(pilot_beta, dtype=np.float64)
    beta[j] = 0.0
    resid_out = y - Z @ beta
    const = float(mu @ (noise_var * beta))
    theta = (float(resid_dir @ resid_out) / n - const) / slope

    def values(at):
        return resid_dir * (resid_out - at * z_j) + noise_var[j] * at - const
    raw = values(theta)
    centred = raw if variance_at == "debiased" else \
        values(float(pilot_beta[j]))
    sd = math.sqrt(float(np.mean(centred ** 2)) / (slope * slope))
    half = float(ndtri(1.0 - alpha / 2.0)) * sd / math.sqrt(n)
    return {"estimate": theta, "slope": slope, "sd": sd,
            "ci_low": theta - half, "ci_high": theta + half,
            "scores": (-raw / (sd * slope)).tobytes()}


def assert_rows_match_oracle(table, y, Z, alpha):
    arrays = {"estimate": table.estimates, "slope": table.slopes,
              "sd": table.sds, "ci_low": table.ci_low,
              "ci_high": table.ci_high}
    for k, j in enumerate(table.targets):
        want = cell_oracle(y, Z, table.noise_var, table.pilot.beta, j,
                           table.mus[k], alpha, table.variance_at)
        got = {field: float(a[k]) for field, a in arrays.items()}
        got["scores"] = table.scores[k].tobytes()
        assert got == want, j


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("variance_at", VARIANCE_CONVENTIONS)
def test_table_batch_equals_cells_formed_alone(order, variance_at):
    # a table's rows, formed in one batch, equal the per-target formulas bit
    # for bit on either design layout, at targets the pilot leaves at 0,
    # which share one y-residual, and at targets inside its support
    gen = np.random.default_rng(5)
    n, p = 70, 12
    Z = np.array(gen.normal(size=(n, p)), order=order)
    y = gen.normal(size=n)
    noise_var = gen.uniform(0.05, 0.3, size=p)
    beta = np.where(gen.uniform(size=p) < 0.4, gen.normal(size=p), 0.0)
    beta[[2, 7]] = 0.0, 0.8
    targets = [7, 2, 0, 11, 5, 9, 3]
    mus = [np.where(np.arange(p) == j, 0.0, 0.2 * gen.normal(size=p))
           for j in targets]
    pilot = SimpleNamespace(beta=beta)
    table = debias._table(y, Z, noise_var, pilot,
                          ((j, mu, None) for j, mu in zip(targets, mus)),
                          0.1, variance_at)
    assert table.targets == tuple(targets)
    assert {beta[j] == 0.0 for j in targets} == {True, False}
    assert_rows_match_oracle(table, y, Z, 0.1)


def test_every_table_array_is_read_only():
    # as a frozen table's fields cannot be rebound, its arrays cannot be
    # written through, however the table was built
    data, noise = small_instance(3, n=60)
    table = run_inference(data, noise, [4, 0, 2, 3], 0.05, TIGHT)
    rebuilt = dataclasses.replace(table, **{
        name: getattr(table, name).copy() for name in ROW_FIELDS})
    for t in (table, rebuilt):
        for name in ROW_FIELDS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(t, name)[0] = 0.0


@pytest.mark.parametrize("field", ["targets", *ROW_FIELDS])
def test_a_table_whose_parts_disagree_raises(field):
    # one target fewer in any one part than in the others
    data, noise = small_instance(3, n=60)
    table = run_inference(data, noise, [4, 0, 2], 0.05, TIGHT)
    with pytest.raises(InputError, match=r"^table \w+ has shape"):
        dataclasses.replace(table, **{field: getattr(table, field)[:2]})


@pytest.mark.parametrize("field, change", [
    ("scores", lambda t: t.scores[:, 1:]), ("n", lambda t: t.n + 1),
    ("mus", lambda t: t.mus[:, 1:]),
    ("noise_var", lambda t: t.noise_var[1:])])
def test_scores_need_n_columns_and_mus_one_per_noise_variance(field, change):
    data, noise = small_instance(3, n=60)
    table = run_inference(data, noise, [4, 0, 2], 0.05, TIGHT)
    with pytest.raises(InputError, match=r"^table (scores|mus) has shape"):
        dataclasses.replace(table, **{field: change(table)})


def test_an_empty_table_constructs():
    data, noise = small_instance(3, n=60)
    table = run_inference(data, noise, [4, 0, 2], 0.05, TIGHT)
    empty = dataclasses.replace(table, targets=(), **{
        name: getattr(table, name)[:0] for name in ROW_FIELDS})
    assert empty.scores.shape == (0, 60) and empty.mus.shape == (0, 5)


@pytest.mark.parametrize("variance_at", VARIANCE_CONVENTIONS)
def test_run_inference_cells_equal_cells_formed_alone(variance_at):
    # on the C-ordered design of run_inference, where z_j has stride p in Z
    data, noise = small_instance(3, n=60)
    table = run_inference(data, noise, [4, 0, 2, 3], 0.05, TIGHT,
                          variance_at)
    assert data.Z.flags.c_contiguous
    at_targets = table.pilot.beta[list(table.targets)]
    assert {b == 0.0 for b in at_targets} == {True, False}
    assert_rows_match_oracle(table, data.y, data.Z, 0.05)


@pytest.mark.parametrize("variance_at", VARIANCE_CONVENTIONS)
def test_graph_cells_equal_cells_formed_alone(monkeypatch, variance_at):
    # a graph whose edges take their partner's node residual where they
    # reuse its pilot, and form their own where they are refit, equals
    # every cell formed alone on the graph's column-major design, whether
    # the source's pilot is 0 at the partner or not
    stacks = record_stacks(monkeypatch)
    Z, gamma = ar_nodes(120, 9)
    tables = list(graph_tables(Z, gamma, range(9), 0.05,
                               variance_at=variance_at))
    refits = refit_edges(stacks)
    edges = {(t, k) for k in range(9) for t in range(9) if t != k}
    assert 0 < len(refits) < len(edges)
    betas = [table.pilot.beta for table in tables]
    assert any(betas[k][t] != 0.0 for t, k in edges)
    design = np.asfortranarray(Z)
    for k, table in enumerate(tables):
        assert_rows_match_oracle(table, design[:, k], design, 0.05)


def degenerate_direction_then(error):
    # a direction whose slope is exactly 0 (mean z_0^2 equals its noise
    # variance at mu = 0), then a pull that fails
    yield 0, np.zeros(2), None
    raise error


def degenerate_problem():
    Z = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    return np.array([1.0, 0.5, -0.5, -1.0]), Z, np.array([1.0, 0.5]), \
        SimpleNamespace(beta=np.zeros(2))


def test_degenerate_cell_raises_before_a_later_pull_error():
    # the directions are pulled first, but a cell pulled before a failed
    # refit still raises first, as it did when cells formed one by one
    y, Z, noise_var, pilot = degenerate_problem()
    with pytest.raises(DegeneracyError) as exc:
        debias._table(y, Z, noise_var, pilot, degenerate_direction_then(
            NumericalError("forced refit failure")), 0.05, "debiased")
    assert exc.value.coordinate == 0

    def fine_then_failing():
        yield 1, np.zeros(2), None
        raise NumericalError("forced refit failure")
    with pytest.raises(NumericalError, match="forced refit failure"):
        debias._table(y, Z, noise_var, pilot, fine_then_failing(), 0.05,
                      "debiased")


@pytest.mark.parametrize("variance_at", VARIANCE_CONVENTIONS)
def test_degenerate_cell_raises_without_runtime_warnings(variance_at):
    # the batch divides by the zero slope before it checks it; that must
    # stay silent, and the cell still raises with its coordinate
    y, Z, noise_var, pilot = degenerate_problem()
    directions = [(1, np.zeros(2), None), (0, np.zeros(2), None)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError) as exc:
            debias._table(y, Z, noise_var, pilot, directions, 0.05,
                          variance_at)
        assert exc.value.coordinate == 0
        with pytest.raises(DegeneracyError):
            debias_coordinate(y, Z, noise_var, np.zeros(2), np.zeros(2), 0)
        # a zero variance divides 0 by 0 in the scores before it raises
        y, Z, noise_var, pilot = zero_variance_problem()
        with pytest.raises(DegeneracyError) as exc:
            one_target(y, Z, noise_var, pilot, 1, np.zeros(2),
                     variance_at=variance_at)
        assert exc.value.coordinate == 1


@pytest.mark.parametrize("alpha", [2.0 ** -53, 1e-17, 5e-324])
def test_alpha_whose_quantile_is_infinite_is_rejected(alpha):
    # 1 - alpha/2 rounds to 1, so the normal quantile would be infinite
    assert 1.0 - alpha / 2.0 == 1.0
    data, noise = small_instance(1)
    with pytest.raises(InputError, match="alpha"):
        run_inference(data, noise, [0], alpha=alpha)
    with pytest.raises(InputError, match="alpha"):
        next(graph_tables(data.Z, np.full(5, 0.1), [0], alpha=alpha))
    with pytest.raises(InputError, match="alpha"):
        interval_table(alpha)


def test_tiny_alpha_with_a_finite_quantile_still_gives_finite_cells():
    data, noise = small_instance(1)
    alpha = 1e-15
    table = run_inference(data, noise, [0, 3], alpha=alpha, cfg=TIGHT)
    assert np.all(np.isfinite(table.ci_low) & np.isfinite(table.ci_high))
    assert np.all(table.ci_low < table.estimates)
    assert np.all(table.estimates < table.ci_high)
    assert_rows_match_oracle(table, data.y, data.Z, alpha)


def test_variance_squares_the_slope_exactly():
    # libm's pow (a Python float's s ** 2) and s * s differ in the last bit
    # at this slope; a cell divides by the exact square, one slope or a
    # table's batch of them alike
    slope = 0.4786618688802179
    assert 1.0 / slope ** 2 != 1.0 / (slope * slope)
    gen = np.random.default_rng(2)
    centred = np.vstack([np.ones(4), gen.normal(size=(2, 4))])
    want = [float(np.mean(row ** 2)) / (slope * slope) for row in centred]
    assert variance(centred[0], slope) == want[0]
    assert debias._variances(centred, np.full(3, slope)).tolist() == want
