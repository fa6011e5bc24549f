"""Monte Carlo coverage and size studies for the debiased pipeline.

The data generating process draws rows x_i ~ N(0, Omega) with the Toeplitz
correlation Omega_jk = ar_rho^|j-k|, as x_i = L e_i with L the Cholesky
factor of Omega in closed form (the AR(1) recursion written out; see
`_ar1_factor`), responses y = x'beta0 + model_sd * xi, and either additive
covariate noise z = x + measurement_sd * w (known-noise mode) or
independent cell-wise missingness with zero-filled storage
(missing-at-random mode).  All draws come from counter-based streams keyed by
(seed, replication), so replication r is reproducible in isolation and
results are independent of execution order and worker count.

Two methods are supported: "eiv" runs the measurement-error-corrected
pipeline with the true noise model; "naive" runs the identical pipeline with
the noise variances claimed to be zero, which is the ordinary debiased lasso
applied to the noisy design and is the baseline whose size collapses once
measurement noise matters.

A replication rejects when a null value falls outside its interval: the
pointwise normal interval for a single target, and the multiplier-bootstrap
band for several, so the rejection rate estimates the family-wise error rate
under true nulls.  The band's verdict comes from `bootstrap.band_covers`,
which draws only the bootstrap multipliers that settle it.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng
from .bootstrap import band_covers
from .debias import VARIANCE_CONVENTIONS, run_inference
from .errors import (
    DegeneracyError,
    InputError,
    NumericalError,
    check_integer,
    check_real,
)
from .lasso import Dataset, NoiseSpec, SolverConfig

# Study fits favor throughput: statistical error dominates solver error well
# before the default tolerances pay off.  The penalty multiplier absorbs the
# score scale of the study model (response sd is about 3.6 under the preset
# truths, so the gradient of the corrected loss at the truth runs near 4x the
# dimension rate); with the multiplier at 1 the pilot lands on spurious
# negative-curvature boundary points and the debiased size is destroyed.
STUDY_SOLVER = SolverConfig(penalty_scale=5.0, tol=1e-6, max_iter=4000)

# Fraction of failed replications at which the whole study aborts.
FAILURE_BUDGET = 0.05


@dataclass(frozen=True)
class SimConfig:
    """One study design; see the module docstring for the generative model."""

    n: int
    p: int
    beta0: np.ndarray
    targets: tuple[int, ...]
    null_values: tuple[float, ...]
    measurement_sd: float = 1.0
    model_sd: float = 1.0
    ar_rho: float = 0.5
    method: str = "eiv"
    noise_mode: str = "known"
    miss_prob: float = 0.1
    replications: int = 250
    alpha: float = 0.05
    boot_draws: int = 500
    seed: int = 0
    variance_at: str = "debiased"
    solver: SolverConfig = STUDY_SOLVER

    def __post_init__(self):
        # as objects, so that a string or a bool reaches check_real intact
        for value in np.asarray(self.beta0, dtype=object).ravel():
            check_real("beta0 entry", value)
        beta0 = np.asarray(self.beta0, dtype=np.float64)
        object.__setattr__(self, "beta0", beta0)
        for j in self.targets:
            check_integer("target", j)
        object.__setattr__(self, "targets", tuple(int(j) for j in self.targets))
        for value in self.null_values:
            check_real("null_values entry", value)
        object.__setattr__(self, "null_values",
                           tuple(float(v) for v in self.null_values))
        for name in ("n", "p", "replications", "boot_draws", "seed"):
            check_integer(name, getattr(self, name))
        for name in ("measurement_sd", "model_sd", "ar_rho", "miss_prob",
                     "alpha"):
            check_real(name, getattr(self, name))
        if self.n < 2 or self.p < 2:
            raise InputError("need n >= 2 and p >= 2")
        if not 0 <= self.seed < 2 ** 64:
            raise InputError(
                f"seed must be an unsigned 64-bit integer (got {self.seed})")
        if beta0.shape != (self.p,):
            raise InputError(f"beta0 has shape {beta0.shape}, expected ({self.p},)")
        if not np.all(np.isfinite(beta0)):
            raise InputError("beta0 must be finite")
        if not self.targets:
            raise InputError("target set is empty")
        if len(set(self.targets)) != len(self.targets):
            raise InputError("target set has duplicates")
        if any(not 0 <= j < self.p for j in self.targets):
            raise InputError("target out of range")
        if len(self.null_values) != len(self.targets):
            raise InputError("need one null value per target")
        if not all(map(math.isfinite, self.null_values)):
            raise InputError("null_values must be finite")
        for name in ("measurement_sd", "model_sd"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InputError(
                    f"{name} must be finite and nonnegative (got {value!r})")
        if not 0.0 <= self.ar_rho < 1.0:
            raise InputError("ar_rho must lie in [0, 1)")
        if self.variance_at not in VARIANCE_CONVENTIONS:
            raise InputError(f"unknown variance_at {self.variance_at!r}")
        if self.method not in ("eiv", "naive"):
            raise InputError(f"unknown method {self.method!r}")
        if self.noise_mode not in ("known", "mar"):
            raise InputError(f"unknown noise_mode {self.noise_mode!r}")
        if not 0.0 <= self.miss_prob < 1.0:
            raise InputError("miss_prob must lie in [0, 1)")
        if self.replications < 1:
            raise InputError("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha must lie strictly between 0 and 1")
        if self.boot_draws < 1:
            raise InputError("need at least one bootstrap draw")


@dataclass(frozen=True)
class SimReport:
    """Aggregate rejection rate (size or FWER), bias, and per-rep records."""

    rejection_rate: float
    mean_bias: float
    rejection_se: float
    replications: int
    completed: int
    failures: int
    records: tuple[dict, ...]


@lru_cache(maxsize=8)
def _ar1_factor(p: int, rho: float) -> np.ndarray:
    """The lower-triangular L with L L' = Omega, Omega_jk = rho^|j-k|.

    It is the AR(1) recursion x_0 = e_0, x_j = rho x_{j-1} + sqrt(1 - rho^2)
    e_j written out: L[j, k] = rho^(j-k) for k <= j, with every column but
    the first scaled by sqrt(1 - rho^2).  This is the Cholesky factor of
    Omega in closed form, and at least as accurate as a factorization.
    """
    lag = np.arange(p)
    L = np.tril(rho ** np.abs(lag[:, None] - lag[None, :]))
    L[:, 1:] *= math.sqrt(1.0 - rho * rho)
    return L


def generate(cfg: SimConfig, rep: int) -> Dataset:
    """Dataset for replication `rep`, a pure function of (cfg.seed, rep).

    The stream is laid out in a fixed order (x, xi, w, missingness uniforms)
    regardless of mode, so e.g. known-noise and missing-at-random variants of
    the same seed share their latent x, xi, w draws.  A mode draws only what
    it uses: missing-at-random skips w's raw words, and known noise stops
    before the uniforms.  Z is formed in place: a missing-at-random
    replication's Z is its latent x, zero-filled where a cell is missing, and
    a known-noise one's is the scaled w with x added into it.
    """
    n, p = cfg.n, cfg.p
    bits = rng.stream(cfg.seed, rng.DOMAIN_REPLICATION, rep)
    x = rng.normals(bits, n * p).reshape(n, p)
    if cfg.ar_rho != 0.0:
        x = x @ _ar1_factor(p, cfg.ar_rho).T
    xi = rng.normals(bits, n)
    y = x @ cfg.beta0 + cfg.model_sd * xi
    if cfg.noise_mode == "mar":
        rng.skip(bits, n * p)
        missing = rng.uniforms(bits, n * p).reshape(n, p) < cfg.miss_prob
        np.copyto(x, 0.0, where=missing)
        return Dataset(y=y, Z=x, mask=np.logical_not(missing, out=missing))
    if cfg.measurement_sd == 0:
        return Dataset(y=y, Z=x)
    w = rng.normals(bits, n * p).reshape(n, p)
    w *= cfg.measurement_sd
    w += x
    return Dataset(y=y, Z=w)


def _bootstrap_seed(cfg: SimConfig, rep: int) -> int:
    # child seed for the in-replication bootstrap, pure in (seed, rep)
    return int(rng.stream(cfg.seed, rng.DOMAIN_REPLICATION, rep, 1).random_raw(1)[0])


def _noise_for(cfg: SimConfig, data: Dataset) -> tuple[Dataset, NoiseSpec]:
    if cfg.method == "naive":
        # the naive baseline takes the observed design at face value
        if data.mask is not None:
            data = Dataset(y=data.y, Z=data.Z, mask=None)
        return data, NoiseSpec.known(np.zeros(cfg.p))
    if cfg.noise_mode == "mar":
        return data, NoiseSpec.mar()
    return data, NoiseSpec.known(np.full(cfg.p, cfg.measurement_sd ** 2))


def _replicate(cfg: SimConfig, rep: int) -> dict:
    data, noise = _noise_for(cfg, generate(cfg, rep))
    table = run_inference(data, noise, cfg.targets, cfg.alpha, cfg.solver,
                          cfg.variance_at)
    nulls = cfg.null_values
    if len(nulls) == 1:
        reject = nulls[0] < table.ci_low[0] or nulls[0] > table.ci_high[0]
    else:
        reject = not band_covers(table, nulls, cfg.boot_draws,
                                 _bootstrap_seed(cfg, rep))
    estimates, sds = table.estimates.tolist(), table.sds.tolist()
    return {"rep": int(rep), "reject": bool(reject), "covered": not reject,
            "stats": [math.sqrt(cfg.n) * (est - null) / sd
                      for est, null, sd in zip(estimates, nulls, sds)],
            "biases": [est - float(cfg.beta0[j])
                       for j, est in zip(table.targets, estimates)],
            "estimates": estimates, "sds": sds}


def _replicate_guarded(args) -> dict:
    cfg, rep = args
    try:
        return _replicate(cfg, rep)
    except (NumericalError, DegeneracyError) as exc:
        return {"rep": int(rep), "failed": True,
                "error_kind": type(exc).__name__, "error": str(exc)}


# Thread-count variables of the BLAS builds NumPy links against.  A worker
# process reads them once, when it loads NumPy.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


@contextmanager
def _worker_pool(workers: int):
    """A pool of fresh (spawned) processes whose BLAS runs one thread each,
    so that `workers` processes do not oversubscribe the cores; the
    caller's environment is restored afterwards.  The pool's modules are
    imported here, so that a process that never starts one never loads
    them."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def run_study(cfg: SimConfig, workers: int = 1) -> SimReport:
    """Run every replication and aggregate size/FWER and bias.

    Failed replications (numerical or degeneracy errors) are recorded and
    excluded from the aggregates; more than FAILURE_BUDGET of them aborts the
    study.

    More than one worker runs the replications in spawned processes whose
    BLAS runs one thread (see `_worker_pool`).  Output is identical for any
    worker count when the calling process runs one BLAS thread too; at
    other thread counts it can differ in the last bits where BLAS splits
    its sums by thread.  The workers re-import the calling script, so a
    script must guard its entry point with ``if __name__ == "__main__":``.
    """
    if workers < 1:
        raise InputError(f"workers must be at least 1 (got {workers})")
    payloads = [(cfg, rep) for rep in range(cfg.replications)]
    if workers > 1:
        chunk = max(1, cfg.replications // (8 * workers))
        with _worker_pool(workers) as pool:
            records = list(pool.map(_replicate_guarded, payloads,
                                    chunksize=chunk))
    else:
        records = [_replicate_guarded(q) for q in payloads]

    failures = sum(1 for r in records if r.get("failed"))
    completed = cfg.replications - failures
    if failures > FAILURE_BUDGET * cfg.replications:
        raise NumericalError(
            f"{failures} of {cfg.replications} replications failed")
    good = [r for r in records if not r.get("failed")]
    rate = sum(1.0 for r in good if r["reject"]) / completed
    bias = sum(float(np.mean(r["biases"])) for r in good) / completed
    se = math.sqrt(rate * (1.0 - rate) / completed)
    return SimReport(rejection_rate=rate, mean_bias=bias, rejection_se=se,
                     replications=cfg.replications, completed=completed,
                     failures=failures, records=tuple(records))


def single_target_study(*, n: int = 200, p: int = 120,
                        target_value: float = 1.0, **fields) -> SimConfig:
    """Size study for one target coordinate.

    The truth puts `target_value` on coordinate 0 and unit signals on
    coordinates 5..9, and tests the true null H0: beta_1 = target_value.
    Any other `SimConfig` field goes in `fields`; `beta0`, `targets` and
    `null_values` given there replace this layout.  Defaults are desk scale;
    pass n=350, p=300, replications=500 for the full-scale design.
    """
    check_real("target_value", target_value)
    if not math.isfinite(target_value):
        raise InputError(f"target_value must be finite (got {target_value!r})")
    # slices, not beta0[0], so that SimConfig is the one to reject p < 2
    beta0 = np.zeros(p)
    beta0[:1] = target_value
    beta0[5:10] = 1.0
    layout = {"beta0": beta0, "targets": (0,), "null_values": (target_value,)}
    return SimConfig(n=n, p=p, **(layout | fields))


def multi_target_study(*, n: int = 200, p: int = 120, **fields) -> SimConfig:
    """Family-wise error study over ten true nulls.

    Coordinates 0..9 are zero and tested jointly at zero through the
    simultaneous band; unit signals sit well away on coordinates 15..19.
    Any other `SimConfig` field goes in `fields`; `beta0`, `targets` and
    `null_values` given there replace this layout.
    """
    beta0 = np.zeros(p)
    beta0[15:20] = 1.0
    layout = {"beta0": beta0, "targets": tuple(range(10)),
              "null_values": (0.0,) * 10}
    return SimConfig(n=n, p=p, **(layout | fields))
