"""Tests for the Monte Carlo study driver.

The data generator is checked against a from-scratch reconstruction of the
stream layout, large-sample moments, and the documented block order; the
study loop is checked for determinism (including across worker counts),
failure accounting, and the structural identities the records must satisfy.
"""

import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest
# LAPACK's factorization, an oracle for the closed-form factor only
from scipy.linalg import cholesky, toeplitz

import eivbands
from eivbands import rng
from eivbands.bootstrap import simultaneous_bands
from eivbands.debias import run_inference
from eivbands.errors import InputError, NumericalError
from eivbands.lasso import SolverConfig
from eivbands import simstudy as ss


def tiny_config(**overrides):
    base = dict(n=40, p=8, beta0=np.r_[1.0, 0, 0, 1.0, 0, 0, 0, 0],
                targets=(0,), null_values=(1.0,), replications=4,
                boot_draws=25, seed=3,
                solver=SolverConfig(tol=1e-6, max_iter=2000))
    base.update(overrides)
    return ss.SimConfig(**base)


# ---------------------------------------------------------------------------
# generate


def reconstruct_design(cfg, rep):
    # independent replay of the documented stream layout:
    # x raws (n*p), xi (n), w raws (n*p), missingness uniforms (n*p)
    bits = rng.stream(cfg.seed, rng.DOMAIN_REPLICATION, rep)
    raw = rng.normals(bits, cfg.n * cfg.p).reshape(cfg.n, cfg.p)
    # the factor is checked against LAPACK's in
    # test_ar1_factor_is_the_cholesky_factor_of_the_toeplitz_target
    L = ss._ar1_factor(cfg.p, cfg.ar_rho)
    x = raw @ L.T
    xi = rng.normals(bits, cfg.n)
    w = rng.normals(bits, cfg.n * cfg.p).reshape(cfg.n, cfg.p)
    u = rng.uniforms(bits, cfg.n * cfg.p).reshape(cfg.n, cfg.p)
    return x, xi, w, u


@pytest.mark.parametrize("fields", [
    pytest.param(dict(measurement_sd=0.7), id="known"),
    pytest.param(dict(measurement_sd=0.0), id="known_noiseless"),
    pytest.param(dict(noise_mode="mar", miss_prob=0.3), id="mar"),
])
def test_generate_equals_the_full_stream_layout_bytewise(fields):
    # a mode draws only what it uses, but every draw sits where the full
    # layout (x, xi, w, uniforms, all drawn) puts it, byte for byte
    cfg = tiny_config(n=60, ar_rho=0.4, **fields)
    data = ss.generate(cfg, 3)
    x, xi, w, u = reconstruct_design(cfg, 3)
    assert data.y.tobytes() == (x @ cfg.beta0 + cfg.model_sd * xi).tobytes()
    if cfg.noise_mode == "mar":
        mask = u >= cfg.miss_prob
        assert data.mask.tobytes() == mask.tobytes()
        assert data.Z.tobytes() == np.where(mask, x, 0.0).tobytes()
    else:
        assert data.mask is None
        want = x + cfg.measurement_sd * w if cfg.measurement_sd > 0 else x
        assert data.Z.tobytes() == want.tobytes()


def test_no_measurement_noise_returns_latent_design_exactly():
    cfg = tiny_config(measurement_sd=0.0)
    data = ss.generate(cfg, 2)
    x, xi, _, _ = reconstruct_design(cfg, 2)
    npt.assert_array_equal(data.Z, x)
    npt.assert_array_equal(data.y, x @ cfg.beta0 + cfg.model_sd * xi)
    assert data.mask is None


def test_known_noise_matches_stream_reconstruction():
    cfg = tiny_config(measurement_sd=0.7)
    data = ss.generate(cfg, 5)
    x, xi, w, _ = reconstruct_design(cfg, 5)
    npt.assert_array_equal(data.Z, x + 0.7 * w)
    npt.assert_array_equal(data.y, x @ cfg.beta0 + xi)


def test_generate_is_deterministic_bitwise():
    cfg = tiny_config(measurement_sd=0.5)
    a = ss.generate(cfg, 7)
    b = ss.generate(cfg, 7)
    npt.assert_array_equal(a.y, b.y)
    npt.assert_array_equal(a.Z, b.Z)


def test_replications_use_disjoint_streams():
    cfg = tiny_config()
    a = ss.generate(cfg, 0)
    b = ss.generate(cfg, 1)
    assert not np.array_equal(a.Z, b.Z)


def test_mar_mode_masks_cells_and_zero_fills():
    cfg = tiny_config(noise_mode="mar", miss_prob=0.3, n=200)
    data = ss.generate(cfg, 1)
    assert data.mask is not None
    assert data.mask.dtype == bool
    npt.assert_array_equal(data.Z[~data.mask], 0.0)
    # observed cells carry the latent design
    x, _, _, u = reconstruct_design(cfg, 1)
    npt.assert_array_equal(data.mask, u >= 0.3)
    npt.assert_array_equal(data.Z, np.where(data.mask, x, 0.0))


def test_modes_share_latent_draws():
    # the stream is consumed in fixed block order, so the latent x of the
    # missingness variant coincides with the noise-free known-mode design
    clean = ss.generate(tiny_config(measurement_sd=0.0), 4)
    marred = ss.generate(tiny_config(noise_mode="mar", miss_prob=0.25), 4)
    npt.assert_array_equal(marred.Z, np.where(marred.mask, clean.Z, 0.0))
    npt.assert_array_equal(marred.y, clean.y)


def test_missing_fraction_near_request():
    cfg = tiny_config(noise_mode="mar", miss_prob=0.2, n=2000)
    data = ss.generate(cfg, 0)
    frac = 1.0 - data.mask.mean()
    assert abs(frac - 0.2) < 0.02


def test_latent_covariance_matches_toeplitz_target():
    # large-sample check of the correlated-design sampler
    beta0 = np.zeros(3)
    beta0[0] = 1.0
    cfg = ss.SimConfig(n=200000, p=3, beta0=beta0, targets=(0,),
                       null_values=(1.0,), measurement_sd=0.0,
                       replications=1, seed=12)
    data = ss.generate(cfg, 0)
    emp = data.Z.T @ data.Z / cfg.n
    target = toeplitz(0.5 ** np.arange(3))
    npt.assert_allclose(emp, target, rtol=0, atol=0.01)


@pytest.mark.parametrize("rho", [0.05, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("p", [1, 2, 3, 8, 120, 300])
def test_ar1_factor_is_the_cholesky_factor_of_the_toeplitz_target(p, rho):
    L = ss._ar1_factor(p, rho)
    assert L.shape == (p, p)
    npt.assert_array_equal(np.triu(L, 1), 0.0)
    assert np.all(np.diag(L) > 0)
    lag = np.arange(p)
    omega = rho ** np.abs(lag[:, None] - lag[None, :])
    # Rounding bound, in units of eps = 2u.  Each entry of L carries a
    # relative error of a few u from `**` and the column scale, plus
    # u rho^2 / (2 (1 - rho^2)) from rounding rho * rho before 1 - rho^2;
    # a p-term dot product of nonnegative terms adds at most p u times
    # (L L')_jk = Omega_jk <= 1, in any summation order.
    eps = np.finfo(np.float64).eps
    residual = (p + 16 + 1.0 / (1.0 - rho * rho)) * eps
    npt.assert_allclose(L @ L.T, omega, rtol=0, atol=residual)
    # Both factors are exact factors of matrices within about `residual`
    # of Omega, so to first order they differ by that much times Omega's
    # condition number, at most (1 + rho) / (1 - rho); a wrong formula
    # would miss by far more.
    oracle = cholesky(toeplitz(rho ** lag), lower=True)
    npt.assert_allclose(L, oracle, rtol=0,
                        atol=residual * (1 + rho) / (1 - rho))


def loaded_modules(statement):
    # the modules in sys.modules after `statement`, in a fresh interpreter
    code = f"import sys; {statement}; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code],
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_importing_the_cli_leaves_linalg_and_process_pools_unloaded():
    # every command pays for what `eivbands.cli` imports; only
    # `simulate --workers N` with N > 1 loads the process pool.  The
    # package needs NumPy and scipy.special, and what those load by
    # themselves (scipy.linalg, in SciPy releases whose scipy.special
    # imports it eagerly) is theirs, not the package's
    unwanted = ("scipy.linalg", "multiprocessing",
                "concurrent.futures.process")
    needed = loaded_modules("import numpy, scipy.special")
    added = loaded_modules("import eivbands.cli") - needed
    assert [m for m in added
            if any(m == u or m.startswith(u + ".") for u in unwanted)] == []


def scipy_modules(modules):
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def test_importing_the_package_loads_no_submodule_and_no_scipy():
    # the namespace is lazy: a public name loads its module on first access
    loaded = loaded_modules("import eivbands")
    assert sorted(m for m in loaded if m.startswith("eivbands.")) == []
    assert scipy_modules(loaded) == []


@pytest.mark.parametrize("module", ["errors", "lasso", "dataio", "mar",
                                    "nodewise", "reports"])
def test_scipy_free_modules_load_no_scipy(module):
    # only rng and debias need the normal quantile, scipy.special.ndtri
    assert scipy_modules(loaded_modules(f"import eivbands.{module}")) == []


def test_importing_the_cli_loads_every_module_and_scipy_special():
    # every command needs ndtri, so the cli pays for SciPy before its
    # commands are timed
    loaded = loaded_modules("import eivbands.cli")
    assert "scipy.special" in loaded
    assert {m for m in loaded if m.startswith("eivbands")} == {
        "eivbands", *(f"eivbands.{m}" for m in (
            "bootstrap", "cli", "dataio", "debias", "errors", "lasso", "mar",
            "nodewise", "reports", "rng", "simstudy"))}


def test_lazy_namespace_resolves_names_and_submodules():
    # a bare `import eivbands` still reaches every submodule by attribute
    loaded_modules("import eivbands; "
                   "assert eivbands.simstudy.generate is eivbands.generate")
    namespace = {}
    exec("from eivbands import *", namespace)
    assert [n for n in eivbands.__all__ if n not in namespace] == []
    assert namespace["estimate_mar"] is eivbands.mar.estimate
    assert set(eivbands.__all__) <= set(dir(eivbands))
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        eivbands.bogus


def test_uncorrelated_design_skips_mixing():
    cfg = tiny_config(ar_rho=0.0, measurement_sd=0.0)
    data = ss.generate(cfg, 3)
    bits = rng.stream(cfg.seed, rng.DOMAIN_REPLICATION, 3)
    raw = rng.normals(bits, cfg.n * cfg.p).reshape(cfg.n, cfg.p)
    npt.assert_array_equal(data.Z, raw)


# ---------------------------------------------------------------------------
# config validation


def test_rejects_bad_method():
    with pytest.raises(InputError):
        tiny_config(method="oracle")


def test_rejects_bad_noise_mode():
    with pytest.raises(InputError):
        tiny_config(noise_mode="heteroskedastic")


@pytest.mark.parametrize("build", [tiny_config, ss.single_target_study,
                                   ss.multi_target_study])
def test_rejects_bad_variance_at(build):
    # rejected when the study is built, not in replication 0's inference
    with pytest.raises(InputError, match="^unknown variance_at 'bogus'$"):
        build(variance_at="bogus")


def test_rejects_target_null_length_mismatch():
    with pytest.raises(InputError):
        tiny_config(targets=(0, 1), null_values=(0.0,))


def test_rejects_duplicate_targets():
    with pytest.raises(InputError):
        tiny_config(targets=(0, 0), null_values=(0.0, 0.0))


def test_rejects_out_of_range_target():
    with pytest.raises(InputError):
        tiny_config(targets=(8,))


def test_rejects_non_integer_targets():
    # a fractional or boolean target is refused, not truncated to a column
    for targets in ((0.5, 1.7), (True, 2)):
        with pytest.raises(InputError, match="^target must be an integer"):
            ss.multi_target_study(targets=targets, null_values=(0.0, 0.0))
    with pytest.raises(InputError, match="^target must be an integer"):
        tiny_config(targets=(2.0,))


def test_rejects_zero_replications():
    with pytest.raises(InputError):
        tiny_config(replications=0)


def test_rejects_bad_alpha():
    with pytest.raises(InputError):
        tiny_config(alpha=1.0)


def test_rejects_bad_miss_prob():
    with pytest.raises(InputError):
        tiny_config(miss_prob=1.0)


def test_rejects_wrong_beta_length():
    with pytest.raises(InputError):
        tiny_config(beta0=np.zeros(5))


def test_rejects_negative_sd():
    with pytest.raises(InputError):
        tiny_config(measurement_sd=-1.0)


@pytest.mark.parametrize("field, value", [
    ("n", 40.0), ("p", 8.0), ("replications", 2.5), ("boot_draws", True),
    ("seed", 1.5), ("seed", -1), ("seed", 2 ** 64)])
def test_rejects_non_integer_counts_and_bad_seed(field, value):
    with pytest.raises(InputError, match=f"^{field} must be"):
        tiny_config(**{field: value})


@pytest.mark.parametrize("build, field, value, message", [
    pytest.param(ss.multi_target_study, "n", "200",
                 "n must be an integer (got '200')", id="n-str"),
    pytest.param(ss.multi_target_study, "measurement_sd", "1",
                 "measurement_sd must be a real number (got '1')",
                 id="measurement_sd-str"),
    pytest.param(ss.multi_target_study, "alpha", True,
                 "alpha must be a real number (got True)", id="alpha-bool"),
    pytest.param(ss.single_target_study, "target_value", "1",
                 "target_value must be a real number (got '1')",
                 id="target_value-str"),
    # once float() read "1" and True as 1.0, and "x" and a string beta0
    # escaped as a bare ValueError
    pytest.param(ss.multi_target_study, "null_values", ("1",) * 10,
                 "null_values entry must be a real number (got '1')",
                 id="null_values-str"),
    pytest.param(ss.multi_target_study, "null_values", (True,) * 10,
                 "null_values entry must be a real number (got True)",
                 id="null_values-bool"),
    pytest.param(ss.multi_target_study, "null_values", ("x",) * 10,
                 "null_values entry must be a real number (got 'x')",
                 id="null_values-x"),
    pytest.param(ss.multi_target_study, "beta0", ["a"] * 120,
                 "beta0 entry must be a real number (got 'a')",
                 id="beta0-str"),
])
def test_rejects_values_of_the_wrong_type(build, field, value, message):
    # refused as InputError before a comparison could raise TypeError
    with pytest.raises(InputError) as exc:
        build(**{field: value})
    assert str(exc.value) == message


def test_accepts_numpy_arrays_of_floats():
    beta0 = np.zeros(120, dtype=np.float32)
    beta0[3] = 0.5
    cfg = ss.multi_target_study(beta0=beta0, null_values=np.zeros(10))
    assert cfg.beta0.dtype == np.float64 and cfg.beta0[3] == 0.5
    assert cfg.null_values == (0.0,) * 10


# ---------------------------------------------------------------------------
# run_study


def test_records_carry_one_entry_per_replication():
    cfg = tiny_config(replications=5)
    rep = ss.run_study(cfg)
    assert rep.replications == 5
    assert rep.completed == 5
    assert rep.failures == 0
    assert [r["rep"] for r in rep.records] == [0, 1, 2, 3, 4]


def test_study_is_deterministic():
    cfg = tiny_config(replications=4)
    assert ss.run_study(cfg).records == ss.run_study(cfg).records


def test_workers_run_blas_on_one_thread(monkeypatch):
    # each worker process sees one BLAS thread; the caller's own settings
    # come back when the pool closes
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    with ss._worker_pool(2) as pool:
        seen = list(pool.map(os.getenv, ss._BLAS_THREAD_VARS))
    assert seen == ["1", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert "MKL_NUM_THREADS" not in os.environ


def test_worker_count_does_not_change_results():
    cfg = tiny_config(replications=6)
    serial = ss.run_study(cfg, workers=1)
    parallel = ss.run_study(cfg, workers=2)
    assert serial.records == parallel.records
    assert serial.rejection_rate == parallel.rejection_rate
    assert serial.mean_bias == parallel.mean_bias


@pytest.mark.parametrize("workers", [0, -3])
def test_rejects_fewer_than_one_worker(workers):
    with pytest.raises(InputError,
                       match=rf"workers must be at least 1 \(got {workers}\)"):
        ss.run_study(tiny_config(replications=2), workers=workers)


def test_rejection_rate_matches_records():
    cfg = tiny_config(replications=8, seed=5)
    rep = ss.run_study(cfg)
    rate = sum(r["reject"] for r in rep.records) / 8
    assert rep.rejection_rate == rate
    assert rep.rejection_se == pytest.approx(
        np.sqrt(rate * (1 - rate) / 8))


def test_coverage_duality():
    # rejection of the true null and coverage of the interval are complements
    cfg = tiny_config(replications=8, seed=5)
    rep = ss.run_study(cfg)
    for r in rep.records:
        assert r["reject"] != r["covered"]
    assert rep.rejection_rate == 1.0 - np.mean([r["covered"] for r in rep.records])


def test_multi_target_band_study_runs():
    beta0 = np.zeros(8)
    beta0[6] = 1.0
    cfg = tiny_config(beta0=beta0, targets=(0, 1, 2),
                      null_values=(0.0, 0.0, 0.0), replications=4)
    rep = ss.run_study(cfg)
    assert rep.failures == 0
    for r in rep.records:
        assert len(r["stats"]) == 3
        assert len(r["biases"]) == 3


def test_band_verdict_is_the_full_bands():
    # a replication decides from the draws that settle it; its verdict is
    # the one the band over every draw gives
    beta0 = np.zeros(8)
    beta0[6] = 1.0
    cfg = tiny_config(beta0=beta0, targets=(0, 1, 2),
                      null_values=(0.0, 0.0, 0.0), replications=8,
                      alpha=0.5, boot_draws=300)
    verdicts = []
    for r in ss.run_study(cfg).records:
        data, noise = ss._noise_for(cfg, ss.generate(cfg, r["rep"]))
        table = run_inference(data, noise, cfg.targets, cfg.alpha,
                              cfg.solver, cfg.variance_at)
        band = simultaneous_bands(table, cfg.boot_draws,
                                  ss._bootstrap_seed(cfg, r["rep"]))
        covered = bool(np.all((band.lower <= 0.0) & (band.upper >= 0.0)))
        assert r["covered"] is covered
        verdicts.append(covered)
    assert set(verdicts) == {True, False}


def test_naive_bias_is_negative_with_measurement_noise():
    # attenuation: ignoring covariate noise drags the estimate toward zero
    cfg = ss.single_target_study(n=150, p=40, replications=20, seed=2,
                                 method="naive")
    rep = ss.run_study(cfg)
    assert rep.mean_bias < -0.1


def test_corrected_method_beats_naive_on_bias():
    eiv = ss.run_study(ss.single_target_study(n=150, p=40, replications=20,
                                              seed=2))
    naive = ss.run_study(ss.single_target_study(n=150, p=40, replications=20,
                                                seed=2, method="naive"))
    assert abs(eiv.mean_bias) < abs(naive.mean_bias)


def test_null_at_zero_noise_free_methods_coincide():
    # with no measurement noise both methods see gamma = 0 and the same data,
    # so every per-replication record agrees exactly
    kwargs = dict(n=60, p=10, replications=5, seed=9, target_value=0.0,
                  measurement_sd=0.0)
    eiv = ss.run_study(ss.single_target_study(**kwargs))
    naive = ss.run_study(ss.single_target_study(method="naive", **kwargs))
    assert eiv.records == naive.records


def test_failure_budget_enforced(monkeypatch):
    real = ss._replicate

    def flaky(cfg, rep):
        if rep < 2:
            raise NumericalError("synthetic failure")
        return real(cfg, rep)

    monkeypatch.setattr(ss, "_replicate", flaky)
    with pytest.raises(NumericalError, match="2 of 10"):
        ss.run_study(tiny_config(replications=10))


def test_failures_within_budget_are_recorded_and_excluded(monkeypatch):
    real = ss._replicate

    def flaky(cfg, rep):
        if rep == 3:
            raise NumericalError("synthetic failure")
        return real(cfg, rep)

    monkeypatch.setattr(ss, "_replicate", flaky)
    rep = ss.run_study(tiny_config(replications=20))
    assert rep.failures == 1
    assert rep.completed == 19
    failed = [r for r in rep.records if r.get("failed")]
    assert len(failed) == 1
    assert failed[0]["rep"] == 3
    assert failed[0]["error_kind"] == "NumericalError"


# ---------------------------------------------------------------------------
# presets


def test_single_target_preset_layout():
    cfg = ss.single_target_study(target_value=0.5)
    assert cfg.n == 200 and cfg.p == 120 and cfg.replications == 250
    assert cfg.targets == (0,)
    assert cfg.null_values == (0.5,)
    assert cfg.beta0[0] == 0.5
    npt.assert_array_equal(cfg.beta0[5:10], np.ones(5))
    assert np.count_nonzero(cfg.beta0) == 6


def test_multi_target_preset_layout():
    cfg = ss.multi_target_study()
    assert cfg.targets == tuple(range(10))
    assert cfg.null_values == (0.0,) * 10
    npt.assert_array_equal(cfg.beta0[15:20], np.ones(5))
    assert np.count_nonzero(cfg.beta0) == 5
    assert cfg.boot_draws == 500


def test_presets_scale_to_full_design():
    cfg = ss.single_target_study(n=350, p=300, replications=500)
    assert (cfg.n, cfg.p, cfg.replications) == (350, 300, 500)
