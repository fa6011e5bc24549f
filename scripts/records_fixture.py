"""Write a golden fixture of every subcommand's reports and every demo's stdout.

    python3 scripts/records_fixture.py DIR

draws small datasets from fixed seeds with NumPy alone, runs `fit` (also
with a penalty that leaves no coefficient), `infer` (known noise, missing at
random, a design too wide for stacked nodewise solves, more targets than one
bootstrap column block, noise sd 1 where some nodewise candidates reach the
l1-ball radius floor, and one target without a band), `bands`, `graph`
(all sources, two of them, enough nodes that the edges span several
bootstrap column blocks, and 26 nodes whose 650 edges go in nodewise stacks
of 227, 227 and 196 rows, so stack boundaries fall inside sources) and
`simulate` (both presets, the multi one also on two workers, a config file
under flags, the naive method with the solver flags, and the study
defaults) once with `--format records` and once with `--format table`, and
captures the stdout of each script in `demos/`.  The two-worker run must
equal its one-worker twin `simulate_multi_mar` byte for byte.  Each invalid `simulate` call in `_error_runs` leaves
`err_<name>.txt`: its exit code and stderr, or the type of an exception that
escapes `main`.  Two checkouts that compute the same numbers give trees that
`diff -r` finds identical, so a refactor is checked with

    python3 scripts/records_fixture.py /tmp/before   # on the old commit
    python3 scripts/records_fixture.py /tmp/after    # on the new commit
    diff -r /tmp/before /tmp/after

The package is imported from the `src/` directory next to this script.
"""

from __future__ import annotations

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from eivbands.cli import main  # noqa: E402

# demos/05 prints its own wall time, the only run-dependent text in a demo
_WALL_TIME = re.compile(r"\d+\.\d+s\]")


def _ar_design(rng, n: int, p: int, rho: float = 0.5) -> np.ndarray:
    x = np.empty((n, p))
    x[:, 0] = rng.normal(size=n)
    for k in range(1, p):
        x[:, k] = rho * x[:, k - 1] + np.sqrt(1.0 - rho ** 2) * rng.normal(size=n)
    return x


def _write_csv(path: Path, columns: dict[str, np.ndarray],
               mask: np.ndarray | None = None) -> None:
    names = list(columns)
    table = np.column_stack([columns[c] for c in names])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for i, row in enumerate(table):
            cells = [repr(float(v)) for v in row]
            if mask is not None:
                # column 0 is the response, which is never missing
                cells = [c if k == 0 or mask[i, k - 1] else "NA"
                         for k, c in enumerate(cells)]
            fh.write(",".join(cells) + "\n")


def _write_gamma(path: Path, gamma: np.ndarray) -> None:
    path.write_text("".join(f"{float(g)!r}\n" for g in gamma), encoding="utf-8")


def _regression(rng, n: int, p: int, sigma_w: float):
    x = _ar_design(rng, n, p)
    beta = np.zeros(p)
    beta[[1, p // 3, p // 2]] = [1.0, -0.8, 0.6]
    y = x @ beta + 0.5 * rng.normal(size=n)
    Z = x + sigma_w * rng.normal(size=(n, p))
    return y, Z


def write_inputs(inputs: Path) -> None:
    """Draw every dataset the runs read; seeds are fixed."""
    sigma_w = 0.5
    y, Z = _regression(np.random.default_rng(11), 120, 40, sigma_w)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "reg.csv", cols)
    _write_gamma(inputs / "reg_gamma.txt", np.full(Z.shape[1], sigma_w ** 2))

    rng = np.random.default_rng(12)
    y, Z = _regression(rng, 150, 30, 0.0)
    mask = rng.uniform(size=Z.shape) >= 0.1
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "mar.csv", cols, mask)

    # wide enough that each nodewise Gram exceeds the stacking budget share
    y, Z = _regression(np.random.default_rng(13), 150, 140, sigma_w)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "wide.csv", cols)
    _write_gamma(inputs / "wide_gamma.txt", np.full(Z.shape[1], sigma_w ** 2))

    # 260 targets: wider than one bootstrap column block
    y, Z = _regression(np.random.default_rng(16), 100, 260, sigma_w)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "many.csv", cols)
    _write_gamma(inputs / "many_gamma.txt", np.full(Z.shape[1], sigma_w ** 2))

    # noise sd 1: 8 of the 40 nodewise fits resolve their l1-ball radius
    y, Z = _regression(np.random.default_rng(19), 120, 40, 1.0)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "ball.csv", cols)
    _write_gamma(inputs / "ball_gamma.txt", np.ones(Z.shape[1]))

    for name, p, seeds in (("nodes", 12, (14, 15)),
                           ("nodes_wide", 20, (17, 18)),
                           ("nodes_stacks", 26, (20, 21))):
        Z = _ar_design(np.random.default_rng(seeds[0]), 100, p)
        Z += sigma_w * np.random.default_rng(seeds[1]).normal(size=Z.shape)
        _write_csv(inputs / f"{name}.csv",
                   {f"z{k + 1}": Z[:, k] for k in range(p)})
        _write_gamma(inputs / f"{name}_gamma.txt", np.full(p, sigma_w ** 2))

    beta0 = np.zeros(20)
    beta0[[0, 3, 7]] = [0.5, 1.0, -0.7]
    study = {"n": 80, "p": 20, "replications": 3, "seed": 8, "model_sd": 0.8,
             "ar_rho": 0.3, "boot_draws": 150,
             "solver": {"tol": 1e-5, "max_iter": 800},
             "beta0": beta0.tolist(), "targets": [1, 2, 4, 8],
             "null_values": [0.5, 0.0, 1.0, -0.7]}
    configs = {"study": study, "unknown_key": {"sample_size": 50},
               "solver_int": {"solver": 5}}
    for name, config in configs.items():
        (inputs / f"{name}.json").write_text(json.dumps(config),
                                             encoding="utf-8")


def _runs(inputs: Path) -> dict[str, list[str]]:
    reg = ["--input", str(inputs / "reg.csv"),
           "--gamma", str(inputs / "reg_gamma.txt")]
    wide = ["--input", str(inputs / "wide.csv"),
            "--gamma", str(inputs / "wide_gamma.txt")]
    many = ["--input", str(inputs / "many.csv"),
            "--gamma", str(inputs / "many_gamma.txt")]
    ball = ["--input", str(inputs / "ball.csv"),
            "--gamma", str(inputs / "ball_gamma.txt")]
    nodes = ["--input", str(inputs / "nodes.csv"),
             "--gamma", str(inputs / "nodes_gamma.txt")]
    nodes_wide = ["--input", str(inputs / "nodes_wide.csv"),
                  "--gamma", str(inputs / "nodes_wide_gamma.txt")]
    nodes_stacks = ["--input", str(inputs / "nodes_stacks.csv"),
                    "--gamma", str(inputs / "nodes_stacks_gamma.txt")]
    mar = ["--input", str(inputs / "mar.csv"), "--mar"]
    small_boot = ["--boot", "300", "--seed", "5"]
    small_study = ["--n", "80", "--p", "20", "--replications", "3"]
    multi_mar = ["simulate", "--preset", "multi", "--noise-mode", "mar",
                 "--n", "100", "--p", "30", "--replications", "3",
                 "--boot", "200", "--seed", "4"]
    return {
        "fit": ["fit", *reg],
        "fit_empty": ["fit", *reg, "--lambda-scale", "500"],
        "infer": ["infer", *reg, *small_boot],
        "infer_single": ["infer", *reg, "--targets", "z3", *small_boot],
        "infer_pilot_variance": ["infer", *reg, "--targets", "z1,z2,z14",
                                 "--variance-at", "pilot", *small_boot],
        "infer_mar": ["infer", *mar, "--targets", "1,2,3,10", *small_boot],
        "infer_wide": ["infer", *wide, "--targets", "1,2,50,140",
                       *small_boot],
        "infer_many": ["infer", *many, *small_boot],
        "infer_ball": ["infer", *ball, *small_boot],
        "infer_max_iter": ["infer", *reg, "--targets", "1,2,3",
                           "--max-iter", "7", *small_boot],
        "bands": ["bands", *reg, "--targets", "z2", *small_boot],
        "graph": ["graph", *nodes, *small_boot],
        "graph_subset": ["graph", *nodes, "--targets", "z1,z4", *small_boot],
        "graph_wide": ["graph", *nodes_wide, *small_boot],
        "graph_stacks": ["graph", *nodes_stacks, *small_boot],
        "simulate_single": ["simulate", "--n", "100", "--p", "30",
                            "--replications", "4", "--boot", "200",
                            "--seed", "3"],
        "simulate_multi_mar": multi_mar,
        "simulate_workers2": [*multi_mar, "--workers", "2"],
        "simulate_config": ["simulate", "--preset", "multi", "--config",
                            str(inputs / "study.json"), "--alpha", "0.1"],
        "simulate_flags": ["simulate", *small_study, "--seed", "9",
                           "--method", "naive", "--variance-at", "pilot",
                           "--target-value", "0.5", "--sigma-w", "0.7",
                           "--lambda-scale", "1.5", "--tol", "1e-5",
                           "--max-iter", "500"],
        "simulate_multi_defaults": ["simulate", "--preset", "multi",
                                    *small_study],
    }


def _error_runs(inputs: Path) -> dict[str, list[str]]:
    # every call is small, so a check that stops firing still ends quickly
    base = ["simulate", "--n", "40", "--p", "6", "--replications", "1"]
    flags = {"alpha": ["--alpha", "2"], "boot": ["--boot", "0"],
             "seed": ["--seed", "-1"], "replications": ["--replications", "0"],
             "workers": ["--workers", "0"],
             "lambda_scale": ["--lambda-scale", "0"], "tol": ["--tol", "0"],
             "max_iter": ["--max-iter", "0"], "p0": ["--p", "0"],
             "p1": ["--p", "1"],
             "unknown_key": ["--config", str(inputs / "unknown_key.json")],
             "solver_int": ["--config", str(inputs / "solver_int.json")]}
    return {name: [*base, *extra] for name, extra in flags.items()}


def run_reports(inputs: Path, out: Path) -> None:
    for name, argv in _runs(inputs).items():
        for fmt, suffix in (("records", "jsonl"), ("table", "txt")):
            dest = out / f"{name}.{suffix}"
            code = main([*argv, "--format", fmt, "--out", str(dest)])
            if code != 0:
                raise SystemExit(f"{name} ({fmt}): exit code {code}")


def run_errors(inputs: Path, out: Path) -> None:
    for name, argv in _error_runs(inputs).items():
        err = io.StringIO()
        try:
            with redirect_stderr(err):
                text = f"exit {main(argv)}\n{err.getvalue()}"
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            text = f"escaped {type(exc).__name__}\n"
        (out / f"err_{name}.txt").write_text(text, encoding="utf-8")


def run_demos(out: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for script in sorted((ROOT / "demos").glob("*.py")):
        done = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, check=True)
        text = _WALL_TIME.sub("<wall>s]", done.stdout)
        (out / f"demo_{script.stem}.txt").write_text(text, encoding="utf-8")


def main_fixture(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    # records echo the input paths, so they are kept relative to DIR
    os.chdir(out)
    inputs = Path("inputs")
    inputs.mkdir(exist_ok=True)
    write_inputs(inputs)
    with redirect_stdout(sys.stderr):
        run_reports(inputs, Path("."))
    run_errors(inputs, Path("."))
    run_demos(Path("."))
    return 0


if __name__ == "__main__":
    sys.exit(main_fixture(sys.argv[1:]))
