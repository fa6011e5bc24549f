import sys

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ndtri

from eivbands import debias, lasso, nodewise
from eivbands.debias import (
    DebiasTable,
    debias_coordinate,
    graph_tables,
    plugin_variance,
    pointwise_ci,
    run_inference,
    score_slope,
    score_values,
)
from eivbands.errors import DegeneracyError, InputError, NumericalError
from eivbands.lasso import Dataset, NoiseSpec, SolverConfig

TIGHT = SolverConfig(tol=1e-10, max_iter=50000)


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


class TestPluginVariance:
    def test_constant_scores(self):
        # all scores equal to c with unit slope: variance = c^2
        psi = np.full(9, 3.0)
        assert plugin_variance(psi, 1.0) == pytest.approx(9.0, abs=0)

    def test_doubling_scores_quadruples(self):
        gen = np.random.default_rng(4)
        psi = gen.normal(size=20)
        assert plugin_variance(2 * psi, 0.7) == pytest.approx(
            4 * plugin_variance(psi, 0.7), rel=1e-14)

    def test_matches_loop_oracle(self):
        gen = np.random.default_rng(6)
        psi = gen.normal(size=13)
        slope = 0.42
        want = sum(float(v) ** 2 for v in psi) / 13 / slope ** 2
        assert plugin_variance(psi, slope) == pytest.approx(want, rel=1e-13)

    def test_zero_variance_degenerate(self):
        with pytest.raises(DegeneracyError):
            plugin_variance(np.zeros(5), 1.0)


class TestPointwiseCI:
    def test_frozen_quantile(self):
        lo, hi = pointwise_ci(1.0, 0.2, 1, 0.05)
        # half width = 1.959964 * 0.2 at n = 1
        assert hi - 1.0 == pytest.approx(1.959964 * 0.2, abs=5e-6)
        assert lo == pytest.approx(1.0 - 1.959964 * 0.2, abs=5e-6)

    def test_quantile_full_precision(self):
        lo, hi = pointwise_ci(0.0, 1.0, 4, 0.05)
        assert hi == pytest.approx(ndtri(0.975) / 2.0, rel=1e-14)

    def test_narrows_with_alpha_and_n(self):
        w1 = np.diff(pointwise_ci(0.0, 1.0, 10, 0.05))[0]
        w2 = np.diff(pointwise_ci(0.0, 1.0, 10, 0.10))[0]
        w3 = np.diff(pointwise_ci(0.0, 1.0, 40, 0.05))[0]
        assert w2 < w1 and w3 == pytest.approx(w1 / 2)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            pointwise_ci(0.0, 1.0, 10, 1.5)
        with pytest.raises(InputError):
            pointwise_ci(0.0, 0.0, 10, 0.05)


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
        for cell in table.cells:
            raw = score_values(data.y, data.Z, noise.noise_var,
                               table.pilot.beta, cell.mu, cell.j,
                               cell.estimate)
            scale = np.abs(raw).max() + 1e-12
            assert abs(raw.mean()) <= 1e-10 * scale

    def test_standardized_scores_default_convention(self):
        data, noise = small_instance(9)
        table = run_inference(data, noise, [1, 3], cfg=TIGHT)
        for cell in table.cells:
            m = cell.scores.mean()
            assert abs(m) <= 1e-10 * (1 + np.abs(cell.scores).max())
            assert np.mean(cell.scores ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_pilot_convention_differs_but_close(self):
        data, noise = small_instance(11)
        t_deb = run_inference(data, noise, [0], cfg=TIGHT)
        t_pil = run_inference(data, noise, [0], cfg=TIGHT,
                              variance_at="pilot")
        assert t_deb.cells[0].estimate == t_pil.cells[0].estimate
        assert t_deb.cells[0].sd != t_pil.cells[0].sd
        assert t_deb.cells[0].sd == pytest.approx(t_pil.cells[0].sd, rel=0.2)

    def test_classical_debias_reduction_at_zero_noise(self):
        # with noise_var = 0 the estimate equals the classical one-step
        # debiased lasso computed directly from the same pilot and direction
        data, noise0 = small_instance(5, noise_sd=0.0)
        zero = NoiseSpec.known(np.zeros(5))
        table = run_inference(data, zero, [0, 1, 2, 3, 4], cfg=TIGHT)
        y, Z = data.y, data.Z
        n = data.n
        for cell in table.cells:
            j = cell.j
            resid_dir = Z[:, j] - Z @ cell.mu
            full_resid = y - Z @ table.pilot.beta
            denom = resid_dir @ Z[:, j] / n
            classical = table.pilot.beta[j] + \
                (resid_dir @ full_resid / n) / denom
            assert cell.estimate == pytest.approx(classical, abs=1e-10)

    def test_response_scaling_equivariance_debias_step(self):
        # with the direction and pilot fixed, doubling (y, pilot) doubles the
        # estimate and sd and leaves standardized scores unchanged
        y, Z, noise_var, pilot, mu, j = random_problem(19, n=30)
        t1 = debias_coordinate(y, Z, noise_var, pilot, mu, j)
        t2 = debias_coordinate(2.0 * y, Z, noise_var, 2.0 * pilot, mu, j)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)
        s1 = score_slope(Z, noise_var, mu, j)
        v1 = plugin_variance(score_values(y, Z, noise_var, pilot, mu, j, t1), s1)
        v2 = plugin_variance(
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
        for c1, c2 in zip(t1.cells, t2.cells):
            assert c2.estimate == pytest.approx(2 * c1.estimate, rel=1e-9)
            assert c2.sd == pytest.approx(2 * c1.sd, rel=1e-9)
            npt.assert_allclose(c2.scores, c1.scores, rtol=0, atol=1e-10)

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

    def test_table_shape(self):
        data, noise = small_instance(2)
        table = run_inference(data, noise, [4, 1], cfg=TIGHT)
        assert table.targets == (4, 1)
        assert table.score_matrix().shape == (data.n, 2)
        assert isinstance(table, DebiasTable)
        for cell in table.cells:
            assert cell.ci_low < cell.estimate < cell.ci_high
            assert cell.mu[cell.j] == 0.0


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

    def recorded(b, G, cfgs, floors=None, pins=None):
        stacks.append([tuple(int(c) for c in row) for row in pins])
        return original(b, G, cfgs, floors, pins)
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", recorded)
    return stacks


def refit_edges(stacks):
    # the edges (t, k) of the recorded stacks
    return {row for stack in stacks for row in stack if len(row) == 2}


def edge_kkt_residual(G, gamma, n, t, k, mu, cfg, inside=False):
    # KKT residual of edge (t, k) at mu, as the edge's own row computes
    # it: pinned at t and k, on its default radius unless cfg sets one,
    # or with inside=True the residual inside the ball, with no weight on
    # its normal cone
    b = G[:, t].copy()
    b[[t, k]] = 0.0
    pin = np.array([[t, k]])
    radius = np.inf if inside else \
        cfg.radius or lasso._free_radius(G, b, pin[0])
    grad = lasso._matvec(G, mu[None], lasso._pinned(pin)) - b
    penalty = lasso.resolve_config(cfg, n, len(G) - 1).penalty
    return lasso._kkt_residual_stack(mu[None], grad, np.array([penalty]),
                                     np.array([radius]))[0]


@pytest.mark.parametrize("budget, rows", GRAPH_BUDGETS)
def test_graph_tables_equal_rows_solved_alone(monkeypatch, budget, rows):
    # every pilot and edge row of the graph's one Gram gives the same bits
    # however the rows are stacked, down to every row solved alone
    Z, gamma, sources = graph_instance()
    with monkeypatch.context() as m:
        m.setattr(nodewise, "STACK_BUDGET_BYTES", 0)
        assert nodewise.stack_rows(6) == 1
        alone = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
        assert nodewise.stack_rows(6) == rows
    tables = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
    for table, want in zip(tables, alone, strict=True):
        for field in ("beta", "objective_trace"):
            assert getattr(table.pilot, field).tobytes() == \
                getattr(want.pilot, field).tobytes()
        for field in ("objective", "iterations", "kkt_residual", "radius"):
            assert getattr(table.pilot, field) == getattr(want.pilot, field)
        assert table.targets == want.targets
        for got, cell in zip(table.cells, want.cells, strict=True):
            assert (got.estimate, got.sd, got.slope) == \
                (cell.estimate, cell.sd, cell.slope)
            assert got.scores.tobytes() == cell.scores.tobytes()
            assert got.mu.tobytes() == cell.mu.tobytes()


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
        for got, cell in zip(table.cells, want.cells, strict=True):
            se = cell.sd / np.sqrt(table.n)
            for field in ("estimate", "sd", "ci_low", "ci_high"):
                assert abs(getattr(got, field) - getattr(cell, field)) <= \
                    1e-9 * se, field
            assert got.mu[j] == 0.0
            if (got.j, j) in refits:
                npt.assert_allclose(got.mu[keep], cell.mu, rtol=0, atol=1e-12)
            else:
                assert got.mu.tobytes() == pilot[got.j].beta.tobytes()
                assert edge_kkt_residual(G, gamma, 50, got.j, j, got.mu,
                                         TIGHT) <= TIGHT.tol


def test_graph_errors_keep_source_order(monkeypatch):
    # every pilot is solved before the first table, but a source's failed
    # pilot raises only when its table is due, after every earlier
    # source's table was yielded
    Z, gamma, sources = graph_instance()
    original = lasso.fit_corrected_lasso_stack
    failing = sources[2]

    def fail_pilot(b, G, cfgs, floors=None, pins=None):
        fits = original(b, G, cfgs, floors, pins)
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

    def fail_pilot(b, G, cfgs, floors=None, pins=None):
        fits = original(b, G, cfgs, floors, pins)
        return [NumericalError("forced pilot failure")
                if tuple(pin) == (2,) else fit
                for pin, fit in zip(pins, fits)]
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", fail_pilot)
    stacks = record_stacks(monkeypatch)
    tables = list(graph_tables(Z, gamma, sources, 0.1, TIGHT))
    assert {(2, k) for k in sources} <= refit_edges(stacks)
    for table, before in zip(tables, want, strict=True):
        assert table.pilot.beta.tobytes() == before.pilot.beta.tobytes()
        for got, cell in zip(table.cells, before.cells, strict=True):
            se = cell.sd / np.sqrt(table.n)
            assert abs(got.estimate - cell.estimate) <= 1e-9 * se
            if got.j != 2:
                assert got.mu.tobytes() == cell.mu.tobytes()


def test_graph_over_some_sources_gives_their_full_graph_tables(monkeypatch):
    # a source's table does not depend on which other columns are sources:
    # the pilot of a column that is only a partner defers its radius and
    # gives the same beta, so the same edges take it; only the sources'
    # pilots resolve their radius, one eigendecomposition each
    Z, gamma, _ = graph_instance()
    full = list(graph_tables(Z, gamma, range(6), 0.1, TIGHT))
    calls = []
    original = lasso.default_radius

    def counted(G, b):
        calls.append(len(G))
        return original(G, b)
    monkeypatch.setattr(lasso, "default_radius", counted)
    some = list(graph_tables(Z, gamma, [4, 1], 0.1, TIGHT))
    assert calls == [5, 5]
    for k, table in zip([4, 1], some, strict=True):
        want = full[k]
        for field in ("beta", "objective_trace"):
            assert getattr(table.pilot, field).tobytes() == \
                getattr(want.pilot, field).tobytes()
        assert (table.pilot.radius, table.pilot.kkt_residual) == \
            (want.pilot.radius, want.pilot.kkt_residual)
        for got, cell in zip(table.cells, want.cells, strict=True):
            assert (got.j, got.estimate, got.sd) == (cell.j, cell.estimate,
                                                     cell.sd)
            assert got.mu.tobytes() == cell.mu.tobytes()


def reuse_oracle(G, gamma, n, pilots, cfg):
    # edge by edge: pilot t's beta solves edge (t, k) when it is 0 at k,
    # strictly inside the edge's ball by the edge's own radius_floor (or
    # the explicit radius), and the edge's KKT residual inside the ball is
    # within tolerance there
    p = len(G)
    reused = set()
    for t, beta in pilots.items():
        for k in range(p):
            if k == t or beta[k] != 0.0:
                continue
            b = G[:, t].copy()
            b[[t, k]] = 0.0
            radius = cfg.radius or lasso.radius_floor(
                G, b, np.delete(gamma, [t, k]))
            if np.abs(beta).sum() < radius and edge_kkt_residual(
                    G, gamma, n, t, k, beta, cfg, inside=True) <= cfg.tol:
                reused.add((t, k))
    return reused


def ar_nodes(n, p, seed=7):
    rng = np.random.default_rng(seed)
    x = np.empty((n, p))
    x[:, 0] = rng.normal(size=n)
    for k in range(1, p):
        x[:, k] = 0.5 * x[:, k - 1] + np.sqrt(0.75) * rng.normal(size=n)
    return x + 0.5 * rng.normal(size=(n, p)), np.full(p, 0.25)


@pytest.mark.parametrize("cfg", [
    pytest.param(SolverConfig(), id="default"),
    pytest.param(SolverConfig(max_iter=7), id="capped"),
    pytest.param(SolverConfig(radius=0.05), id="small_radius"),
])
def test_graph_refits_the_edges_its_pilots_do_not_solve(monkeypatch, cfg):
    # a p = 9 graph refits exactly the edges the rule, checked edge by
    # edge, leaves to a refit: every edge whose pilot is nonzero at the
    # source, sits on or over the edge's ball or stopped unconverged, and
    # no other; a reused edge's pilot lies strictly inside the edge's
    # default ball.  At 7 iterations some pilot stops unconverged, and at
    # radius 0.05 some pilot ends on its ball
    Z, gamma = ar_nodes(120, 9)
    G = lasso.corrected_gram(Z, gamma)
    stacks = record_stacks(monkeypatch)
    tables = list(graph_tables(Z, gamma, range(9), cfg=cfg))
    assert stacks[0] == [(t,) for t in range(9)]
    refits = refit_edges(stacks)
    assert sum(map(len, stacks[1:])) == len(refits)
    pilots = {k: table.pilot.beta for k, table in enumerate(tables)}
    reused = reuse_oracle(G, gamma, 120, pilots, cfg)
    edges = {(t, k) for k in range(9) for t in range(9) if t != k}
    assert refits == edges - reused
    for t, k in edges:
        if pilots[t][k] != 0.0:
            assert (t, k) in refits
        if cfg.radius is not None and np.abs(pilots[t]).sum() >= cfg.radius:
            assert (t, k) in refits
        if not tables[t].pilot.converged:
            assert (t, k) in refits
    for t, k in reused:
        b = G[:, t].copy()
        b[[t, k]] = 0.0
        if cfg.radius is None:
            assert np.abs(pilots[t]).sum() < lasso._free_radius(G, b, [t, k])
    if cfg.max_iter == 7:
        assert not all(table.pilot.converged for table in tables)
    elif cfg.radius is not None:
        assert any(np.abs(beta).sum() >= 0.05 * (1 - 1e-9)
                   for beta in pilots.values())
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
    reused = debias._edges_solved_by_pilots(G, gamma, pilots, cfg)
    assert np.flatnonzero(reused.ravel()).tolist() == [k]
    assert reuse_oracle(G, gamma, 120, {0: np.zeros(9)}, cfg) == {(0, k)}


def test_edge_floors_bound_the_edge_radius():
    # the rank-one floors of every edge of a p = 12 graph are certified:
    # below radius_floor of the edge's own b and noise variances, and below
    # the edge's default radius; with c from every noise variance they are
    # radius_floor to 1e-9
    Z, gamma = ar_nodes(60, 12, seed=3)
    gamma = np.linspace(0.1, 0.4, 12)
    G = lasso.corrected_gram(Z, gamma)
    b = G.copy()
    np.fill_diagonal(b, 0.0)
    floors = debias._edge_radius_floors(G, gamma, b)
    for t in range(12):
        for k in range(12):
            if k == t:
                continue
            row = b[t].copy()
            row[k] = 0.0
            want = lasso.radius_floor(G, row, np.delete(gamma, [t, k]))
            assert floors[t, k] <= want
            assert floors[t, k] >= lasso.radius_floor(G, row, gamma) * \
                (1 - 1e-9)
            assert floors[t, k] < lasso._free_radius(G, row, [t, k])


def test_graph_rejects_duplicate_sources():
    # a repeated source would yield its table, and band its edges, twice
    Z, gamma, _ = graph_instance()
    with pytest.raises(InputError, match="source set has duplicates"):
        list(graph_tables(Z, gamma, [0, 0]))
    with pytest.raises(InputError, match="source set has duplicates"):
        next(graph_tables(Z, gamma, [2, 0, 2]))


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
    assert sum(len(t.cells) for t in tables) == 870


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
