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


# the 6 pilots and 30 edge regressions in one stack each, in stacks of 15
# rows (the edges of 3 sources), or in stacks of 3 rows that cut sources
GRAPH_BUDGETS = [pytest.param(None, None, id="one_stack"),
                 pytest.param(15 * 8 * 6, 15, id="stacks_of_3"),
                 pytest.param(3 * 8 * 6, 3, id="rows_of_3")]


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
    # every source's table is its own run_inference up to rounding: the
    # rows of the graph's Gram and the cells of the graph's design sum over
    # p terms where the source's own sum over p - 1, so estimates, sds and
    # CIs agree to 1e-9 standard errors and every fit takes the same
    # iterations; the graph's table is in the columns of the graph's design,
    # with the pilot and every direction exactly 0 at the source
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
        assert nodewise.stack_rows(6) == rows
    Z, gamma, sources = graph_instance()
    tables = list(graph_tables(Z, gamma, sources, 0.1, TIGHT, "pilot"))
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
            npt.assert_allclose(got.mu[keep], cell.mu, rtol=0, atol=1e-12)


def test_graph_errors_keep_source_order(monkeypatch):
    # a source's pilot is the job right before its edges in the graph's one
    # stream, so a pilot that fails raises only after every earlier
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
    # at p = 30 the 30 pilots and 870 edges of a graph are one stacked
    # solve of 900 rows
    rows = []
    original = nodewise.fit_corrected_lasso_stack

    def counted(b, *args, **kwargs):
        rows.append(len(b))
        return original(b, *args, **kwargs)
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", counted)
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(400, 30))
    Z[:, 1:] += 0.5 * Z[:, :-1]
    tables = list(graph_tables(Z, np.full(30, 0.25), range(30)))
    assert rows == [900]
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
    assert stacks == [3] * 8 + [1]  # each source's pilot, then its 4 edges
    assert max(arrays) == 3
