"""Acceptance gate: ten binding criteria, one test and one printed line each.

Every test here checks an external promise of the package at pinned
tolerances: Monte Carlo error envelopes for the desk-scale studies,
analytical oracles for the bootstrap and solver, and byte-level determinism
for reports.  Run with -s to see the summary lines on success; on failure
the line is part of the assertion message.
"""

import filecmp
import json
import time

import numpy as np
import scipy.stats

from eivbands import dataio, simstudy
from eivbands.bootstrap import critical_value, multiplier_maxima, simultaneous_bands
from eivbands.cli import main
from eivbands.debias import run_inference
from eivbands.lasso import (Dataset, NoiseSpec, SolverConfig, corrected_gram,
                            fit_corrected_lasso)

DESK_SEED = 0


def check(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} {verdict}  {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_desk_null_size_eiv():
    cfg = simstudy.single_target_study(seed=DESK_SEED)
    start = time.perf_counter()
    report = simstudy.run_study(cfg)
    elapsed = time.perf_counter() - start
    rate = report.rejection_rate
    ok = 0.01 <= rate <= 0.10 and elapsed <= 600.0
    check(1, "desk null size, noise-corrected method", ok,
          f"rejection rate {rate:.4f} in [0.01, 0.10], "
          f"{report.completed} reps in {elapsed:.1f}s (limit 600s)")


def test_criterion_02_naive_oversize_and_attenuation():
    cfg = simstudy.single_target_study(seed=DESK_SEED, method="naive")
    report = simstudy.run_study(cfg)
    ok = report.rejection_rate >= 0.5 and report.mean_bias <= -0.15
    check(2, "naive method breaks on the same design", ok,
          f"rejection rate {report.rejection_rate:.4f} >= 0.5, "
          f"mean bias {report.mean_bias:.4f} <= -0.15")


def test_criterion_03_zero_target_both_methods_hold_size():
    rates = {}
    for method in ("eiv", "naive"):
        cfg = simstudy.single_target_study(seed=DESK_SEED, method=method,
                                           target_value=0.0)
        rates[method] = simstudy.run_study(cfg).rejection_rate
    ok = all(0.01 <= r <= 0.11 for r in rates.values())
    check(3, "true zero target: both methods hold size", ok,
          f"corrected {rates['eiv']:.4f}, naive {rates['naive']:.4f}, "
          "both in [0.01, 0.11]")


def test_criterion_04_multi_target_family_wise_error():
    cfg = simstudy.multi_target_study(seed=DESK_SEED)
    report = simstudy.run_study(cfg)
    rate = report.rejection_rate
    ok = 0.01 <= rate <= 0.11
    check(4, "simultaneous band FWER over ten true nulls", ok,
          f"FWER {rate:.4f} in [0.01, 0.11] "
          f"({report.completed} reps, 500 bootstrap draws)")


def test_criterion_05_studentized_statistic_is_standard_normal():
    cfg = simstudy.single_target_study(seed=DESK_SEED, replications=1000)
    report = simstudy.run_study(cfg)
    stats = np.array([r["stats"][0] for r in report.records
                      if not r.get("failed")])
    mean = float(stats.mean())
    var = float(stats.var())
    edges = scipy.stats.norm.ppf(np.linspace(0.0, 1.0, 21))
    counts = np.histogram(stats, bins=edges)[0]
    expected = len(stats) / 20.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    crit = float(scipy.stats.chi2.ppf(0.999, 19))
    ok = abs(mean) <= 0.1 and 0.8 <= var <= 1.25 and chi2 < crit
    check(5, "studentized statistic is standard normal", ok,
          f"mean {mean:.4f} (|.|<=0.1), variance {var:.4f} in [0.8, 1.25], "
          f"chi2(19) {chi2:.1f} < {crit:.1f} over {len(stats)} reps")


def test_criterion_06_bootstrap_critical_value_oracle():
    # constant unit scores make each bootstrap statistic exactly |N(0, 1)|,
    # so the 5% critical value must sit at the normal 97.5% point
    scores = np.ones((64, 1))
    draws = multiplier_maxima(scores, 200000, seed=DESK_SEED)
    crit = critical_value(draws, 0.05)
    err = abs(crit - 1.959964)
    ok = err <= 0.02
    check(6, "bootstrap critical value against the normal quantile", ok,
          f"c* {crit:.6f}, |c* - 1.959964| = {err:.6f} <= 0.02 at B=200000")


def test_criterion_07_debiased_estimate_zeroes_the_score():
    # the estimate is the root of the orthogonalized score; verify the
    # root property with a freshly written score expression
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 21))
        p = int(rng.integers(2, 7))
        x = rng.normal(size=(n, p))
        beta = np.where(rng.uniform(size=p) < 0.5, rng.normal(size=p), 0.0)
        y = x @ beta + 0.3 * rng.normal(size=n)
        Z = x + 0.2 * rng.normal(size=(n, p))
        gamma = np.full(p, 0.04)
        table = run_inference(Dataset(y=y, Z=Z), NoiseSpec.known(gamma),
                              range(p))
        nuisance = table.pilot.beta
        for cell in table.cells:
            j, theta, mu = cell.j, cell.estimate, cell.mu
            beta_mj = nuisance.copy()
            beta_mj[j] = 0.0
            resid_dir = Z[:, j] - Z @ mu
            psi = (resid_dir * (y - Z @ beta_mj - theta * Z[:, j])
                   + gamma[j] * theta - float(mu @ (gamma * beta_mj)))
            scale = max(1.0, float(np.mean(np.abs(psi))))
            worst = max(worst, abs(float(psi.mean())) / scale)
    ok = worst <= 1e-10
    check(7, "mean score vanishes at every debiased estimate", ok,
          f"worst relative |mean psi| {worst:.2e} <= 1e-10 "
          "over 100 instances, all coordinates")


def test_criterion_08_solver_matches_dense_solve_and_soft_threshold():
    rng = np.random.default_rng(7)
    worst_dense = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        n = 60
        x = rng.normal(size=(n, p))
        y = x @ rng.normal(size=p) + 0.5 * rng.normal(size=n)
        Z = x + 0.2 * rng.normal(size=(n, p))
        gamma = np.full(p, 0.04)
        G = corrected_gram(Z, gamma)
        if np.linalg.eigvalsh(G)[0] < 0.05:
            continue
        b = Z.T @ y / n
        cfg = SolverConfig(penalty=0.0, radius=np.inf, tol=1e-12,
                           max_iter=200000, truncation=0.0)
        fit = fit_corrected_lasso(b, G, cfg)
        exact = np.linalg.solve(G, b)
        worst_dense = max(worst_dense,
                          float(np.max(np.abs(fit.beta - exact))))
    worst_soft = 0.0
    for _ in range(100):
        p = int(rng.integers(2, 9))
        b = rng.normal(size=p)
        lam = float(0.4 * np.max(np.abs(b)))
        cfg = SolverConfig(penalty=lam, radius=np.inf, tol=1e-12,
                           max_iter=200000, truncation=0.0)
        fit = fit_corrected_lasso(b, np.eye(p), cfg)
        exact = np.sign(b) * np.maximum(np.abs(b) - lam, 0.0)
        worst_soft = max(worst_soft,
                         float(np.max(np.abs(fit.beta - exact))))
    ok = worst_dense <= 1e-8 and worst_soft <= 1e-8
    check(8, "solver matches dense solve and soft-thresholding", ok,
          f"lambda=0 vs dense solve {worst_dense:.2e} <= 1e-8; "
          f"identity Gram vs soft threshold {worst_soft:.2e} <= 1e-8")


def test_criterion_09_mar_with_no_missing_equals_known_zero_noise(tmp_path):
    rng = np.random.default_rng(3)
    n, p = 80, 6
    Z = rng.normal(size=(n, p))
    y = Z[:, 0] - 0.8 * Z[:, 3] + 0.4 * rng.normal(size=n)
    with_mask = Dataset(y=y, Z=Z, mask=np.ones((n, p), dtype=bool))
    plain = Dataset(y=y, Z=Z)
    targets = [0, 3]
    t_mar = run_inference(with_mask, NoiseSpec.mar(), targets)
    t_known = run_inference(plain, NoiseSpec.known(np.zeros(p)), targets)
    cells_equal = all(
        a.estimate == b.estimate and a.sd == b.sd and a.ci_low == b.ci_low
        and a.ci_high == b.ci_high and a.slope == b.slope
        for a, b in zip(t_mar.cells, t_known.cells))
    band_mar = simultaneous_bands(t_mar, 500, seed=1)
    band_known = simultaneous_bands(t_known, 500, seed=1)
    bands_equal = (band_mar.critical_value == band_known.critical_value
                   and np.array_equal(band_mar.lower, band_known.lower)
                   and np.array_equal(band_mar.upper, band_known.upper))

    # same property through the command line, record for record
    data_path = str(tmp_path / "full.csv")
    dataio.write_dataset_csv(data_path, with_mask)
    gamma_path = str(tmp_path / "zeros.txt")
    with open(gamma_path, "w") as fh:
        fh.write("0.0\n" * p)
    out_mar = str(tmp_path / "mar.ndjson")
    out_known = str(tmp_path / "known.ndjson")
    assert main(["infer", "--input", data_path, "--mar", "--targets", "z1,z4",
                 "--format", "records", "--out", out_mar]) == 0
    assert main(["infer", "--input", data_path, "--gamma", gamma_path,
                 "--targets", "z1,z4", "--format", "records", "--out",
                 out_known]) == 0
    strip = lambda path: [line for line in open(path, encoding="utf-8")
                          if json.loads(line)["record"] != "run"]
    cli_equal = strip(out_mar) == strip(out_known)
    ok = cells_equal and bands_equal and cli_equal
    check(9, "zero missing cells: estimated noise path equals known zero", ok,
          f"cells identical: {cells_equal}, bands identical: {bands_equal}, "
          f"reports identical outside the settings header: {cli_equal}")


def test_criterion_10_reports_identical_across_worker_counts(tmp_path):
    sim_args = ["simulate", "--n", "80", "--p", "20", "--replications", "12",
                "--seed", "5", "--format", "records"]
    a, b = str(tmp_path / "sim1.ndjson"), str(tmp_path / "sim4.ndjson")
    assert main(sim_args + ["--workers", "1", "--out", a]) == 0
    assert main(sim_args + ["--workers", "4", "--out", b]) == 0
    sim_equal = filecmp.cmp(a, b, shallow=False)
    check(10, "byte-identical reports across worker counts", sim_equal,
          f"simulate 1 vs 4 workers: {sim_equal}")
