import numpy as np
import numpy.testing as npt
import pytest

from eivbands import lasso, nodewise
from eivbands.debias import run_inference
from eivbands.errors import InputError, NumericalError
from eivbands.lasso import Dataset, NoiseSpec, SolverConfig, corrected_gram, \
    default_radius, fit_corrected_lasso, fit_corrected_lasso_stack, \
    resolve_config
from eivbands.nodewise import NodewiseResult, fit_nodewise, \
    fit_nodewise_jobs, stack_rows

TIGHT = SolverConfig(penalty=0.0, radius=np.inf, tol=1e-12, max_iter=100000,
                     truncation=0.0)


def test_two_column_closed_form():
    # p=2: regressing column 0 on column 1 has the scalar solution
    # mu = (sum z0*z1 / n) / (sum z1^2 / n - noise_var_1)
    gen = np.random.default_rng(5)
    Z = gen.normal(size=(40, 2))
    noise_var = np.array([0.7, 0.3])
    want = (Z[:, 0] @ Z[:, 1] / 40) / (Z[:, 1] @ Z[:, 1] / 40 - 0.3)
    res = fit_nodewise(Z, noise_var, 0, TIGHT)
    npt.assert_allclose(res.mu, [0.0, want], rtol=0, atol=1e-10)


def test_target_noise_variance_never_enters():
    gen = np.random.default_rng(8)
    Z = gen.normal(size=(30, 4))
    v1 = np.array([0.5, 0.2, 0.3, 0.1])
    v2 = v1.copy()
    v2[1] = 99.0  # target column's own variance, must be ignored
    r1 = fit_nodewise(Z, v1, 1, TIGHT)
    r2 = fit_nodewise(Z, v2, 1, TIGHT)
    npt.assert_array_equal(r1.mu, r2.mu)


def test_duplicated_column_recovered():
    gen = np.random.default_rng(3)
    z = gen.normal(size=25)
    Z = np.column_stack([z, z])
    res = fit_nodewise(Z, np.zeros(2), 0, TIGHT)
    npt.assert_allclose(res.mu, [0.0, 1.0], rtol=0, atol=1e-8)


def test_orthogonal_columns_large_penalty_gives_zero():
    Z = np.kron(np.eye(3), np.ones((4, 1)))  # 12 x 3 orthogonal blocks
    cfg = SolverConfig(penalty=10.0, radius=np.inf)
    res = fit_nodewise(Z, np.zeros(3), 2, cfg)
    npt.assert_array_equal(res.mu, np.zeros(3))


def test_self_exclusion_exact_zero():
    gen = np.random.default_rng(1)
    Z = gen.normal(size=(20, 5))
    res = fit_nodewise(Z, np.full(5, 0.25), 3,
                       SolverConfig(tol=1e-8, max_iter=5000))
    assert res.mu[3] == 0.0


def sub_gram(Z, noise_var, j):
    # the (-j, -j) block of the design's corrected Gram and its column j
    full = corrected_gram(Z, noise_var)
    keep = np.arange(Z.shape[1]) != j
    return full[np.ix_(keep, keep)], full[keep, j]


def design_jobs(Z, noise_var, jobs, cfg, **kwargs):
    # the job stream of one design: its corrected Gram, at the config
    # resolved for its n x p shape, as fit_nodewise and run_inference use
    return fit_nodewise_jobs(corrected_gram(Z, noise_var), jobs,
                             resolve_config(cfg, *Z.shape), **kwargs)


def test_reduces_to_corrected_lasso_subproblem():
    # the pinned row solves the sliced subproblem; its sums run over p
    # rather than p - 1 terms, so only the last bits may differ
    gen = np.random.default_rng(12)
    n, p, j = 30, 6, 2
    Z = gen.normal(size=(n, p))
    noise_var = gen.uniform(0.1, 0.5, size=p)
    cfg = SolverConfig(penalty=0.15, tol=1e-10)
    res = fit_nodewise(Z, noise_var, j, cfg)
    keep = np.arange(p) != j
    G, b = sub_gram(Z, noise_var, j)
    sub = fit_corrected_lasso(b, G, resolve_config(cfg, n, p))
    assert sub.iterations > 0
    assert (res.fit.iterations, res.fit.converged) == \
        (sub.iterations, sub.converged)
    assert res.mu[j] == 0.0
    npt.assert_allclose(res.mu[keep], sub.beta, rtol=0, atol=1e-12)
    assert res.mu is res.fit.beta


def test_relabeling_symmetry():
    # swapping two non-target columns swaps the corresponding mu entries
    gen = np.random.default_rng(21)
    Z = gen.normal(size=(40, 5))
    noise_var = gen.uniform(0.1, 0.4, size=5)
    cfg = SolverConfig(penalty=0.1, tol=1e-11, truncation=0.0)
    base = fit_nodewise(Z, noise_var, 0, cfg)
    perm = np.array([0, 3, 2, 1, 4])  # swap columns 1 and 3
    swapped = fit_nodewise(Z[:, perm], noise_var[perm], 0, cfg)
    npt.assert_allclose(swapped.mu, base.mu[perm], rtol=0, atol=1e-9)


def test_bad_inputs_rejected():
    Z = np.ones((10, 3))
    with pytest.raises(InputError):
        fit_nodewise(Z, np.zeros(3), 3, TIGHT)  # j out of range
    with pytest.raises(InputError):
        fit_nodewise(Z, np.zeros(2), 0, TIGHT)  # wrong noise length
    with pytest.raises(InputError):
        fit_nodewise(np.ones((10, 0)), np.zeros(0), 0, TIGHT)  # no columns


def test_single_column_direction_is_empty():
    # with no other columns the projection direction has nothing to load on
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(12, 1))
    res = fit_nodewise(Z, np.array([0.4]), 0, TIGHT)
    npt.assert_array_equal(res.mu, np.zeros(1))
    assert res.mu is res.fit.beta
    assert res.fit.converged


# A stack forms its rows' G x in one product, whose last bits depend on
# how many rows share it, so a stacked target agrees with the target solved
# alone up to this bound, relative to 1 + the field's size, with the same
# iterations, convergence, penalty and radius.
ROUNDING = 1e-10


def assert_same_direction(got, want, rounding=0.0):
    # bit for bit, or with `rounding` > 0 up to it in mu, the objective and
    # the KKT residual
    assert got.j == want.j
    assert got.mu is got.fit.beta
    for field in ("iterations", "converged", "penalty", "radius"):
        assert getattr(got.fit, field) == getattr(want.fit, field), field
    for field in ("beta", "objective", "kkt_residual"):
        g, w = np.asarray(getattr(got.fit, field)), \
            np.asarray(getattr(want.fit, field))
        if rounding:
            scale = 1.0 + np.abs(w).max()
            assert np.abs(g - w).max() <= rounding * scale, field
        else:
            assert g.tobytes() == w.tobytes(), field


@pytest.mark.parametrize("cfg, budget", [
    pytest.param(SolverConfig(), None, id="cfg0"),
    pytest.param(SolverConfig(max_iter=5), None, id="cfg1"),
    pytest.param(SolverConfig(penalty_scale=5.0, tol=1e-6), None, id="cfg2"),
    # two 12-column rows per stack: the 5 targets go in batches of 2, 2, 1
    pytest.param(SolverConfig(), 2 * 8 * 12, id="budget"),
])
def test_stack_matches_one_target_at_a_time(monkeypatch, cfg, budget):
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
        assert stack_rows(12) == 2
    stacks = count_stacks(monkeypatch)
    rng = np.random.default_rng(17)
    n, p = 40, 12
    Z = rng.normal(size=(n, p))
    Z[:, 1:] += 0.6 * Z[:, :-1]
    noise_var = rng.uniform(0.0, 0.5, size=p)
    targets = [5, 0, 11, 3, 7]
    stacked = list(design_jobs(Z, noise_var, targets, cfg))
    assert stacks == ([5] if budget is None else [2, 2, 1])
    for got, j in zip(stacked, targets, strict=True):
        assert_same_direction(got, fit_nodewise(Z, noise_var, j, cfg),
                              ROUNDING)


def test_stack_raises_at_the_failing_target(monkeypatch):
    # the huge noise variance of column 4 makes every subproblem that keeps
    # column 4 indefinite, so with no ball those solves diverge; target 4's
    # own subproblem drops the column and converges
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(60, 5))
    noise_var = np.array([0.0, 0.0, 0.0, 0.0, 5.0])
    cfg = SolverConfig(radius=np.inf, penalty_scale=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as single:
            fit_nodewise(Z, noise_var, 0, cfg)
        want = fit_nodewise(Z, noise_var, 4, cfg)
        results = design_jobs(Z, noise_var, [4, 0, 1], cfg)
        assert_same_direction(next(results), want, ROUNDING)
        with pytest.raises(NumericalError) as stacked:
            next(results)
    assert str(stacked.value) == str(single.value)

    # in stacks of one row, the failing row raises only after every
    # result of the stacks before it, and no later stack is formed
    monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", 0)
    stacks = count_stacks(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        results = design_jobs(Z, noise_var, [4, 0, 1], cfg)
        assert_same_direction(next(results), want)
        with pytest.raises(NumericalError) as stacked:
            next(results)
    assert str(stacked.value) == str(single.value)
    assert stacks == [1, 1]


def test_stack_can_yield_a_failure_in_place():
    # the same stream with raise_errors=False yields target 0's and 1's
    # errors where their results would be, and goes on past them
    rng = np.random.default_rng(5)
    Z = rng.normal(size=(60, 5))
    noise_var = np.array([0.0, 0.0, 0.0, 0.0, 5.0])
    cfg = SolverConfig(radius=np.inf, penalty_scale=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError) as single:
            fit_nodewise(Z, noise_var, 0, cfg)
        results = list(design_jobs(Z, noise_var, [0, 4, 1, 4], cfg,
                                   raise_errors=False))
        want = fit_nodewise(Z, noise_var, 4, cfg)
    assert [type(r) for r in results] == [NumericalError, NodewiseResult,
                                          NumericalError, NodewiseResult]
    assert str(results[0]) == str(single.value)
    assert_same_direction(results[1], want, ROUNDING)
    assert_same_direction(results[3], want, ROUNDING)


def count_stacks(monkeypatch):
    # rows of each stacked solve, through the name nodewise binds
    rows = []
    original = nodewise.fit_corrected_lasso_stack

    def counted(b, *args, **kwargs):
        rows.append(b.shape[0])
        return original(b, *args, **kwargs)
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", counted)
    return rows


def test_stack_rows_follow_the_row_budget(monkeypatch):
    # rows of one p-vector each: every edge of a 30-node graph fits in one
    # stack, 300-column rows go 109 to a stack
    assert stack_rows(1) == nodewise.STACK_BUDGET_BYTES // 8
    assert stack_rows(30) >= 30 * 29
    assert stack_rows(300) == 109
    monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", 0)
    assert stack_rows(30) == 1


@pytest.mark.parametrize("cfg", [
    pytest.param(SolverConfig(), id="default"),
    pytest.param(SolverConfig(max_iter=5), id="capped"),
    pytest.param(SolverConfig(penalty_scale=0.2), id="loose"),
])
def test_job_leaving_out_columns_regresses_on_the_rest(cfg):
    # a job (t, k) on the full Gram, at the config resolved for the p - 1
    # columns of the design without k, is the regression on that design:
    # same penalty and iterations, and equal up to rounding; its target and
    # direction stay in the Gram's columns, with mu exactly 0 at the target
    # and at k
    rng = np.random.default_rng(37)
    n, p = 50, 9
    Z = rng.normal(size=(n, p))
    Z[:, 1:] += 0.6 * Z[:, :-1]
    noise_var = rng.uniform(0.1, 0.4, size=p)
    G = corrected_gram(Z, noise_var)
    resolved = resolve_config(cfg, n, p - 1)
    for k, t in ((4, 1), (4, 7), (0, 8), (8, 0)):
        got = next(fit_nodewise_jobs(G, [(t, k)], resolved))
        keep = np.arange(p) != k
        want = fit_nodewise(Z[:, keep], noise_var[keep], t - (t > k), cfg)
        assert got.j == t
        assert got.mu.shape == (p,) and got.mu[t] == got.mu[k] == 0.0
        assert (got.fit.iterations, got.fit.converged, got.fit.penalty) == \
            (want.fit.iterations, want.fit.converged, want.fit.penalty)
        npt.assert_allclose(got.mu[keep], want.mu, rtol=0, atol=1e-12)


# the stack's error for pins out of range or repeated
PIN_ERROR = ("need b of shape (k, p), a (p, p) Gram G, and for each row of "
             "b distinct pins in [0, p)")

# jobs that may not be formed, and the error naming each: the stream checks
# the target before it reads its column of G, the stack every pin
JOB_ERRORS = {
    "past_p": ((1, 2, 9), PIN_ERROR),
    "negative": ((1, -1), PIN_ERROR),
    "repeated": ((1, 2, 4, 2), PIN_ERROR),
    "target_twice": ((1, 1), PIN_ERROR),
    "target_past_p": ((9, 2), "target column 9 out of range for p=9"),
    "target_negative": (-1, "target column -1 out of range for p=9"),
    # a fractional or boolean target or pin is refused, not truncated
    "target_float": (1.0, "target column must be an integer (got 1.0)"),
    "target_bool": (True, "target column must be an integer (got True)"),
    "pin_float": ((1, 2.5), "pin must be an integer (got 2.5)"),
}


@pytest.mark.parametrize("case", list(JOB_ERRORS))
def test_left_out_columns_are_validated(case):
    # a job's pins are checked by the stack, and its target by the stream
    # before the target's column is read, so a negative target does not
    # index G from the end; the target is pinned once, by its job's first
    # entry
    job, message = JOB_ERRORS[case]
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(30, 9))
    G = corrected_gram(Z, np.full(9, 0.1))
    with pytest.raises(InputError) as exc:
        list(fit_nodewise_jobs(G, [3, job], resolve_config(
            SolverConfig(), 30, 9)))
    assert str(exc.value) == message


def test_job_stream_takes_a_resolved_config(monkeypatch):
    # the stream resolves no penalty: a config with none raises from the
    # stack as the first stack is formed, whatever the jobs
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(30, 9))
    G = corrected_gram(Z, np.full(9, 0.1))
    stacks = count_stacks(monkeypatch)
    for jobs in ([3], [(1, 4), 0]):
        with pytest.raises(InputError, match="penalty must be resolved"):
            next(fit_nodewise_jobs(G, jobs, SolverConfig()))
    assert stacks == [1, 2]


@pytest.mark.parametrize("scale", [1.0, 0.2, 50.0])
def test_pilot_job_regresses_the_target_on_the_rest(scale):
    # a job (j, *pins) is z_j on Z without j and pins: the row of G with b
    # its column j, pinned at j and pins, at the config it is given, and
    # with its radius resolved before its first pass, so a pilot that never
    # leaves 0 (scale 50) still reports the radius of its free block (up to
    # the rounding of a sum over p terms rather than the free ones)
    rng = np.random.default_rng(19)
    n, p = 60, 9
    Z = rng.normal(size=(n, p))
    Z[:, 1:] += 0.6 * Z[:, :-1]
    noise_var = np.full(p, 0.2)
    G = corrected_gram(Z, noise_var)
    cfg = resolve_config(SolverConfig(penalty_scale=scale), n, p - 1)
    for job in (3, (3,), (3, 6), (0,)):
        got = next(fit_nodewise_jobs(G, [job], cfg))
        out = job if isinstance(job, tuple) else (job,)
        j = out[0]
        b = G[:, j].copy()
        b[list(out)] = 0.0
        want = fit_corrected_lasso_stack(b[None], G, cfg, pins=[out])[0]
        assert got.j == j and got.mu is got.fit.beta
        assert_same_direction(got, NodewiseResult(j, want.beta, want))
        free = ~np.isin(np.arange(p), out)
        assert got.fit.radius == default_radius(G, b)
        npt.assert_allclose(got.fit.radius,
                            default_radius(G[np.ix_(free, free)], b[free]),
                            rtol=1e-15)
        assert (got.fit.iterations == 0) == (scale == 50.0)


def test_wide_design_with_many_targets_splits_into_stacks(monkeypatch):
    # all 300 targets of one 300-column design share its Gram, and the rows
    # still cut the stacks, so no solver array of a stack outgrows the
    # budget; a row cut from its Gram's other rows gives the same bits
    rng = np.random.default_rng(29)
    n, p = 60, 300
    Z = rng.normal(size=(n, p))
    Z[:, 1:] += 0.5 * Z[:, :-1]
    noise_var = np.full(p, 0.1)
    assert stack_rows(p) == nodewise.STACK_BUDGET_BYTES // (8 * p) < p
    stacks = count_stacks(monkeypatch)
    cfg = SolverConfig(penalty_scale=2.0, max_iter=30)
    fits = list(design_jobs(Z, noise_var, range(p), cfg))
    assert len(stacks) > 1 and sum(stacks) == p
    assert stacks == [stack_rows(p)] * (len(stacks) - 1) + [stacks[-1]]
    for j in (0, stack_rows(p) - 1, stack_rows(p), p - 1):
        assert_same_direction(fits[j], fit_nodewise(Z, noise_var, j, cfg))


def count_radius_calls(monkeypatch):
    # calls of the scalar rule lasso.default_radius, which the single
    # solver makes; a stack resolves its rows' radii in one row sum
    calls = []
    original = lasso.default_radius

    def counted(G, b):
        calls.append(G.shape[0])
        return original(G, b)
    monkeypatch.setattr(lasso, "default_radius", counted)
    return calls


@pytest.mark.parametrize("budget", [None, 0], ids=["stacked", "one_by_one"])
def test_inference_resolves_only_the_pilot_radius(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(nodewise, "STACK_BUDGET_BYTES", budget)
    # AR(0.5) columns observed with noise sd 0.5: the pilot resolves its
    # radius alone, and the nodewise rows theirs as rows of their stacks
    n, p = 200, 30
    gen = np.random.default_rng(31)
    x = np.empty((n, p))
    x[:, 0] = gen.normal(size=n)
    for k in range(1, p):
        x[:, k] = 0.5 * x[:, k - 1] + np.sqrt(0.75) * gen.normal(size=n)
    Z = x + 0.5 * gen.normal(size=(n, p))
    y = x[:, 2] - 0.8 * x[:, 10] + 0.5 * gen.normal(size=n)
    noise_var = np.full(p, 0.25)
    calls = count_radius_calls(monkeypatch)
    table = run_inference(Dataset(y=y, Z=Z), NoiseSpec.known(noise_var),
                          range(p))
    assert len(table.targets) == p
    assert calls == [p]  # the pilot's p x p Gram, no nodewise one


def test_no_pass_over_a_finished_row(monkeypatch):
    # the edge regressions of every third source of a 30-node graph (AR(0.5)
    # nodes observed with noise sd 0.5, n = 400), rows of the graph's one
    # Gram, go in one stack of 290 rows, and its solver loop passes each row
    # once per iteration or backtracking retry, never after the row stopped;
    # a row solved alone makes exactly those passes
    n, p = 400, 30
    gen = np.random.default_rng(7)
    x = np.empty((n, p))
    x[:, 0] = gen.normal(size=n)
    for k in range(1, p):
        x[:, k] = 0.5 * x[:, k - 1] + np.sqrt(0.75) * gen.normal(size=n)
    Z = x + 0.5 * gen.normal(size=(n, p))
    noise_var = np.full(p, 0.25)
    G = corrected_gram(Z, noise_var)
    jobs = [(t, k) for k in range(0, p, 3) for t in range(p) if t != k]
    cfg = resolve_config(SolverConfig(), n, p - 1)

    rows, power = [], []
    matvec, bound = lasso._matvec, lasso._spectral_bound_stack

    def counted_matvec(G, X, pinned):
        rows.append(X.shape[0])
        return matvec(G, X, pinned)

    def counted_bound(G, pin):
        power.append(len(pin))
        return bound(G, pin)
    monkeypatch.setattr(lasso, "_matvec", counted_matvec)
    monkeypatch.setattr(lasso, "_spectral_bound_stack", counted_bound)

    def loop_row_passes():
        # rows of every matvec, less the power iteration's
        return sum(rows) - lasso._POWER_ITERATIONS * sum(power)

    stacks = count_stacks(monkeypatch)
    fits = list(fit_nodewise_jobs(G, jobs, cfg))
    assert stacks == [len(jobs)]
    row_passes = loop_row_passes()
    iterations = sum(f.fit.iterations for f in fits)
    rows.clear()
    power.clear()
    for job in jobs:
        next(fit_nodewise_jobs(G, [job], cfg))
    retries = loop_row_passes() - iterations
    assert 0 <= retries < iterations
    assert row_passes == iterations + retries
