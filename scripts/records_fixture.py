"""Write a golden fixture of every subcommand's reports and every demo's stdout.

    python3 scripts/records_fixture.py DIR
    python3 scripts/records_fixture.py --compare BEFORE AFTER

draws small datasets from fixed seeds with NumPy alone, runs `fit` (also
with a penalty that leaves no coefficient), `infer` (known noise, missing at
random, a 140-column design, more targets than one bootstrap column block
or one nodewise stack holds,
noise sd 1 where some nodewise fits end on their l1 balls,
one target without a band, and the first dataset as a spreadsheet exports
it: a byte-order mark, CRLF line ends, quoted and padded cells, which the
reader parses cell by cell where clean files take its one-pass parse),
`bands`, `graph` (all sources, two of them, the same two given in
reverse order, whose node and edge records follow that order,
enough nodes that the edges span several bootstrap column blocks, 26
nodes whose 26 pilots, rows of the graph's one corrected Gram, make one
nodewise stack and whose 650 edges each take their partner's pilot or are
refit in one more, `--max-iter 7`, where pilots and edges stop
unconverged, six times the default penalty, where every pilot stops at 0
and still reports its l1-ball radius, and noise sd 1 at a fifth of the
default penalty, where nearly every pilot and edge row ends on its l1
ball) and
`simulate` (both presets, the multi one also on two workers, a config file
under flags, the naive method with the solver flags, the study defaults,
noise sd 1 at a fifth of the study penalty, where pilots and nodewise
rows end on their l1 balls, and two multi-target studies that reach every
exit of the band's coverage decision: one at alpha 0.5, whose replications
miss after 256, 384 and all 500 draws and hold after 384 and all of them,
and one of 50 draws, less than one draw chunk, that misses and holds on
its only chunk) once with `--format records` and once with
`--format table`, and captures the stdout of each script in `demos/`.  The two-worker run must
equal its one-worker twin `simulate_multi_mar` byte for byte.  Each invalid call in `_error_runs` (bad
`simulate` flags and config files, and an `infer` target whose column is
all zero at noise variance 0) leaves
`err_<name>.txt`: its exit code and stderr, or the type of an exception that
escapes `main`.  Two checkouts that compute the same numbers give trees that
`diff -r` finds identical, so a refactor is checked with

    python3 scripts/records_fixture.py /tmp/before   # on the old commit
    python3 scripts/records_fixture.py /tmp/after    # on the new commit
    diff -r /tmp/before /tmp/after

A change that moves numbers only in their last bits is checked with
`--compare BEFORE AFTER` instead.  For each file that differs it prints the
largest deviation of every numeric field: in standard errors sd/sqrt(n) for
the estimate, sd, CI and band fields of a target or edge record and the
estimates, biases and sds of a replication (`stats` are already in SE),
absolute for `kkt_residual`, relative to the old value for any other
record field, and in units of the last printed digit for the numbers of a
table, demo or error text.  It exits 1 if a file is missing on one side,
any other text or field differs, a record deviates by more than 1e-9 SE,
1e-12 absolute or 1e-9 relative, or a printed number by more than one unit
in its last digit.  A KKT residual sits near the solver tolerance as a
difference of nearly equal terms, so rounding moves it by a large relative
amount; 1e-12 is far below every fixture run's tolerance (1e-8 or more)
and far above rounding (about 1e-15).

The package is imported from the `src/` directory next to this script.
"""

from __future__ import annotations

import io
import json
import math
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


def _write_spreadsheet(path: Path, columns: dict[str, np.ndarray]) -> None:
    # as a spreadsheet exports a table: a byte-order mark, CRLF line ends,
    # quoted names and every third cell quoted, the next one padded
    names = list(columns)
    table = np.column_stack([columns[c] for c in names])
    lines = [",".join(f'"{c}"' for c in names)]
    for row in table.tolist():
        lines.append(",".join(f'"{v!r}"' if k % 3 == 0 else
                              f" {v!r}\t" if k % 3 == 1 else repr(v)
                              for k, v in enumerate(row)))
    path.write_text("\ufeff" + "".join(line + "\r\n" for line in lines),
                    encoding="utf-8", newline="")


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
    _write_spreadsheet(inputs / "spreadsheet.csv", cols)
    _write_gamma(inputs / "reg_gamma.txt", np.full(Z.shape[1], sigma_w ** 2))

    rng = np.random.default_rng(12)
    y, Z = _regression(rng, 150, 30, 0.0)
    mask = rng.uniform(size=Z.shape) >= 0.1
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "mar.csv", cols, mask)

    # 140 columns: the design's Gram alone fills a nodewise stack's budget
    y, Z = _regression(np.random.default_rng(13), 150, 140, sigma_w)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "wide.csv", cols)
    _write_gamma(inputs / "wide_gamma.txt", np.full(Z.shape[1], sigma_w ** 2))

    # 260 targets: wider than one bootstrap column block, and nodewise
    # stacks of 126, 126 and 8 rows on the design's one Gram
    y, Z = _regression(np.random.default_rng(16), 100, 260, sigma_w)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "many.csv", cols)
    _write_gamma(inputs / "many_gamma.txt", np.full(Z.shape[1], sigma_w ** 2))

    # noise sd 1: 5 of the 40 nodewise fits end on their l1 balls
    y, Z = _regression(np.random.default_rng(19), 120, 40, 1.0)
    cols = {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(Z.shape[1])}
    _write_csv(inputs / "ball.csv", cols)
    _write_gamma(inputs / "ball_gamma.txt", np.ones(Z.shape[1]))

    for name, p, seeds, sd in (("nodes", 12, (14, 15), sigma_w),
                               ("nodes_wide", 20, (17, 18), sigma_w),
                               ("nodes_stacks", 26, (20, 21), sigma_w),
                               ("nodes_ball", 12, (22, 23), 1.0)):
        Z = _ar_design(np.random.default_rng(seeds[0]), 100, p)
        Z += sd * np.random.default_rng(seeds[1]).normal(size=Z.shape)
        _write_csv(inputs / f"{name}.csv",
                   {f"z{k + 1}": Z[:, k] for k in range(p)})
        _write_gamma(inputs / f"{name}_gamma.txt", np.full(p, sd ** 2))

    # an all-zero column at noise variance 0: its score slope is exactly 0
    rng = np.random.default_rng(24)
    Z = np.column_stack([np.zeros(30), rng.normal(size=(30, 2))])
    y = Z[:, 1] + 0.1 * rng.normal(size=30)
    _write_csv(inputs / "zero_column.csv",
               {"y": y} | {f"z{k + 1}": Z[:, k] for k in range(3)})
    _write_gamma(inputs / "zero_column_gamma.txt", np.zeros(3))

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
    nodes_ball = ["--input", str(inputs / "nodes_ball.csv"),
                  "--gamma", str(inputs / "nodes_ball_gamma.txt")]
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
        "infer_spreadsheet": ["infer", "--input",
                              str(inputs / "spreadsheet.csv"), "--gamma",
                              str(inputs / "reg_gamma.txt"), *small_boot],
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
        "graph_subset_reversed": ["graph", *nodes, "--targets", "z4,z1",
                                  *small_boot],
        "graph_wide": ["graph", *nodes_wide, *small_boot],
        "graph_stacks": ["graph", *nodes_stacks, *small_boot],
        "graph_max_iter": ["graph", *nodes, "--max-iter", "7", *small_boot],
        "graph_zero_pilots": ["graph", *nodes, "--lambda-scale", "6",
                              *small_boot],
        "graph_ball": ["graph", *nodes_ball, "--lambda-scale", "0.2",
                       *small_boot],
        "simulate_single": ["simulate", "--n", "100", "--p", "30",
                            "--replications", "4", "--boot", "200",
                            "--seed", "3"],
        "simulate_ball": ["simulate", "--preset", "single", "--sigma-w", "1",
                          "--lambda-scale", "0.2", "--n", "100", "--p", "30",
                          "--replications", "4", "--seed", "3", "--boot",
                          "200"],
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
        "simulate_alpha_half": ["simulate", "--preset", "multi", "--n", "100",
                                "--p", "30", "--replications", "6", "--boot",
                                "500", "--seed", "5", "--alpha", "0.5"],
        "simulate_one_chunk": ["simulate", "--preset", "multi",
                               "--noise-mode", "mar", "--n", "100", "--p",
                               "30", "--replications", "4", "--boot", "50",
                               "--seed", "5", "--alpha", "0.5"],
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
    runs = {name: [*base, *extra] for name, extra in flags.items()}
    runs["infer_degenerate"] = ["infer", "--input",
                                str(inputs / "zero_column.csv"), "--gamma",
                                str(inputs / "zero_column_gamma.txt"),
                                "--targets", "z1"]
    return runs


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


# record fields measured in standard errors of their record's sd
_SE_FIELDS = ("estimate", "sd", "ci_low", "ci_high", "band_low", "band_high")
_SE_LISTS = ("estimates", "biases", "sds")
_TOLERANCE = 1e-9
# the gate of each deviation unit; any unit not named here is at _TOLERANCE
_GATES = {"abs": 1e-12, "last digit": 1.0}
# a decimal number as reports print it; anything else must match exactly
_DECIMAL = re.compile(r"(-?\d+\.\d+(?:e[-+]?\d+)?)")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _record_deviations(old: dict, new: dict, n: int, worst: dict) -> list:
    """Fold one record pair's numeric deviations into `worst`; return the
    fields whose non-numeric content differs."""
    if set(old) != set(new):
        return [f"fields {sorted(set(old) ^ set(new))}"]
    bad = []
    for key, a in old.items():
        b = new[key]
        pairs = list(zip(a, b)) if isinstance(a, list) and \
            isinstance(b, list) and len(a) == len(b) else [(a, b)]
        for i, (x, y) in enumerate(pairs):
            if not (_is_number(x) and _is_number(y)):
                if x != y:
                    bad.append(key)
                continue
            if x == y:
                continue
            if key in _SE_FIELDS and "sd" in old:
                unit, scale = "SE", old["sd"] / math.sqrt(n)
            elif key in _SE_LISTS:
                unit, scale = "SE", old["sds"][i] / math.sqrt(n)
            elif key == "stats":
                unit, scale = "SE", 1.0
            elif key == "kkt_residual":
                unit, scale = "abs", 1.0
            else:
                unit, scale = "rel", abs(x)
            dev = abs(y - x) / scale if scale > 0 else math.inf
            worst[(key, unit)] = max(worst.get((key, unit), 0.0), dev)
    return bad


def _compare_records(old: str, new: str, worst: dict) -> list:
    old = [json.loads(line) for line in old.splitlines()]
    new = [json.loads(line) for line in new.splitlines()]
    if len(old) != len(new):
        return [f"{len(old)} records before, {len(new)} after"]
    n = next(r["n"] for r in old if r.get("record") == "run")
    bad = []
    for a, b in zip(old, new):
        bad += _record_deviations(a, b, n, worst)
    return bad


def _compare_text(old: str, new: str, worst: dict) -> list:
    old, new = _DECIMAL.split(old), _DECIMAL.split(new)
    if len(old) != len(new):
        return ["text"]
    bad = []
    # odd positions hold the printed numbers
    for i, (a, b) in enumerate(zip(old, new)):
        if a == b:
            continue
        if i % 2 == 0:
            bad.append("text")
            continue
        digits = len(a.split("e")[0].split(".")[1])
        exponent = int(a.split("e")[1]) if "e" in a else 0
        dev = abs(float(b) - float(a)) / 10.0 ** (exponent - digits)
        worst[("printed", "last digit")] = max(
            worst.get(("printed", "last digit"), 0.0), dev)
    return bad


def compare(before: Path, after: Path) -> int:
    """Print the deviations of AFTER from BEFORE; see the module docstring."""
    names = {p.relative_to(root) for root in (before, after)
             for p in root.rglob("*") if p.is_file()}
    failed = False
    for name in sorted(names):
        if not (before / name).is_file() or not (after / name).is_file():
            print(f"{name}: only in {before if (before / name).is_file() else after}")
            failed = True
            continue
        old = (before / name).read_text(encoding="utf-8")
        new = (after / name).read_text(encoding="utf-8")
        if old == new:
            continue
        worst: dict = {}
        if name.suffix == ".jsonl":
            bad = _compare_records(old, new, worst)
        else:
            bad = _compare_text(old, new, worst)
        over = [(k, v) for k, v in worst.items()
                if v > _GATES.get(k[1], _TOLERANCE)]
        failed |= bool(bad or over)
        devs = ", ".join(f"{key} {dev:.3g} {unit}"
                         for (key, unit), dev in sorted(worst.items()))
        print(f"{name}: {devs or 'no numeric change'}"
              + (f"; differs in {sorted(set(bad))}" if bad else "")
              + ("; OVER TOLERANCE" if over else ""))
    return 1 if failed else 0


def main_fixture(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
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
