"""Self-test of the benchmark at its small reference size.

    python3 bench/selftest.py

Runs every workload once untraced and once traced with --size check and
asserts that the last line of standard output is the result object, that it
names every metric BENCHMARK.json lists for the mode, each with its unit,
that the run was correct (which includes traced and untraced records being
byte-identical), and that the result file records the numeric stack.  Last
it runs the benchmark in a directory holding only BENCHMARK.json and the
benchmark, where it must fail without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Names the tracer must rebind besides the defining modules' own.
REBOUND = ("eivbands.nodewise.fit_corrected_lasso",
           "eivbands.debias.fit_nodewise", "eivbands.cli.run_inference",
           "eivbands.simstudy.run_inference")


def run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(bench: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--size", "check")
    label = f"{workload} trace={trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, label
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(entry["value"], (int, float)), m["name"]
        assert math.isfinite(entry["value"]), m["name"]
        assert f"{m['name']} = " in proc.stdout, f"{label}: {m['name']} not printed"
    path = os.path.join(HERE, "out", "results",
                        f"{workload}-seed5-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        detail = json.load(fh)
    assert {"nproc", "blas", "numpy", "scipy"} <= set(detail["env"]), label
    assert detail["ref_dev_se"] == 0.0 and detail["ref_identical"], label
    if trace:
        assert detail["traced_wall_s"] and detail["wall_s"], label
        bound = {q for where in detail["bindings"].values() for q in where}
        missing = [q for q in REBOUND if q not in bound]
        assert not missing, f"{label}: not rebound {missing}"
    print(f"ok  {label}")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "--workload", "graph", "--seed", "1", "--seconds",
                   "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"correct"' not in proc.stdout, "printed a result without sources"
    print("ok  refuses to run without the program's sources")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for entry in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, entry["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
