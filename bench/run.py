"""Benchmark of the eivbands command line: infer, graph and simulate.

Run from the root of a checkout:

    python3 bench/run.py --workload infer --seed 7 --seconds 30 --trace 0

A run derives a few datasets from --seed and sets up each one's inputs in a
fresh process, then runs the workload's CLI command on the datasets in turn,
each time in a fresh Python process, until --seconds are used, and last runs
the same command at a small size on the fixed reference seed and compares
its records with the ones stored in bench/reference/.  The workloads, their
sizes and the layers each should load are in bench/workloads.json;
BENCHMARK.json names the metrics.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics: the median set-up time of a dataset, the median wall
time of the command, items per second at that time and the median peak
resident memory of the process that ran the command.  Times are rescaled to
full host speed (see SPEED_REFERENCE_S); the result file keeps the raw ones.
With --trace 1 the command runs on the first dataset only, traced twice for
every untraced run (see tracing.py), and the line holds the per-layer
metrics; the untraced runs give the tracing overhead.

Every command's records are checked: exit code 0, finite numbers only, the
expected number of cells, the same bytes on every repeat of the seed (traced
or not), every estimate within `sanity_max_z` standard errors of the truth
the inputs were drawn from, and no failed study replication.  The reference
records must agree within `ref_tolerance_se` standard errors.  Per-layer
counts must repeat exactly.  Any breach is printed to standard error as
FAIL, reported as "correct": false, and makes the exit code 1.

    python3 bench/run.py --workload graph --make-reference

rewrites the reference records of a workload from the current program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import LAYERS
from worker import load_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 60

# CPU seconds the speed kernel of worker.SpeedTrace takes when the host
# runs this process at full speed (a 2-vCPU Xeon VM).  The shared host
# switches between full and about half speed many times a minute, so every
# timing is rescaled by this over the kernel's mean time while it was taken.
SPEED_REFERENCE_S = 0.0002

# Counts that must be equal on every traced repeat of one seed.
EXACT_SUFFIXES = (".calls", ".iterations", ".flops", ".bytes", ".peak_bytes",
                  ".count", ".moved_frac", ".support_mean", ".converged_frac")


class Checks:
    """Attempted and failed command executions, and the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def flag(self, message: str) -> None:
        print(f"FAIL: {message}", file=sys.stderr)
        self.problems.append(message)

    def command(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for message in problems:
                self.flag(message)


def _child(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        q for q in (SRC, HERE, env.get("PYTHONPATH")) if q)
    return subprocess.run([sys.executable, WORKER, *args], cwd=cwd, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def setup_inputs(workload: str, variant: str, seed: int,
                 out_dir: str) -> tuple[float, dict]:
    """Make the inputs in a fresh process; returns (seconds, its report)."""
    start = time.perf_counter()
    proc = _child(["setup", "--workload", workload, "--variant", variant,
                   "--seed", str(seed), "--dir", out_dir])
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"setup of {workload} failed:\n{proc.stderr}")
    return elapsed, json.loads(proc.stdout.splitlines()[-1])


def command_argv(spec: dict, size: dict, seed: int) -> list[str]:
    # file names are relative to the inputs directory, the command's working
    # directory, because the records quote the noise file's name
    fill = {**{k: str(v) for k, v in size.items()}, "seed": str(seed),
            "data": "data.csv", "noise": "noise.txt", "out": "records.jsonl"}
    if "target_step" in size:
        fill["targets"] = ",".join(str(j) for j in target_columns(size))
    return [token.format(**fill) for token in spec["argv"]]


def run_once(argv: list[str], in_dir: str, run_dir: str, tag: str,
             traced: bool) -> tuple[dict, str | None, str]:
    """One command in a fresh process: (stats, records text, stderr)."""
    out_path = os.path.join(in_dir, argv[argv.index("--out") + 1])
    stats_path = os.path.join(run_dir, f"stats-{tag}.json")
    spans_path = os.path.join(run_dir, f"spans-{tag}.jsonl")
    args = ["cmd", "--argv", json.dumps(argv), "--run-id", tag,
            "--stats", stats_path]
    if traced:
        args += ["--spans", spans_path]
    proc = _child(args, cwd=in_dir)
    if proc.returncode != 0 or not os.path.exists(stats_path):
        return {"exit_code": proc.returncode}, None, proc.stderr
    with open(stats_path, encoding="utf-8") as fh:
        stats = json.load(fh)
    stats["spans_path"] = spans_path if traced else None
    text = None
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
    return stats, text, proc.stderr


# ---------------------------------------------------------------------------
# records


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return True


def cells(workload: str, records: list[dict]) -> tuple[int, dict]:
    """(n, {cell key: (estimate, sd)}) from a command's records."""
    n = records[0]["n"]
    out = {}
    for rec in records:
        kind = rec.get("record")
        if workload == "infer" and kind == "target":
            out[str(rec["index"])] = (rec["estimate"], rec["sd"])
        elif workload == "graph" and kind == "edge":
            out[f"{rec['source_index']}-{rec['partner_index']}"] = (
                rec["estimate"], rec["sd"])
        elif workload == "simulate" and kind == "replication":
            for t, (est, sd) in enumerate(zip(rec["estimates"], rec["sds"])):
                out[f"{rec['rep']}:{t + 1}"] = (est, sd)
    return n, out


def target_columns(size: dict) -> range:
    return range(1, size["p"] + 1, size["target_step"])


def expected_items(workload: str, size: dict) -> int:
    if workload == "infer":
        return len(target_columns(size))
    if workload == "graph":
        return size["p"] * (size["p"] - 1)
    return size["replications"]


def check_records(workload: str, size: dict, text: str | None, truth: dict,
                  max_z: float) -> tuple[list[str], float]:
    """Problems with one command's records, and the largest distance of an
    estimate from the truth in standard errors."""
    if not text:
        return ["no records written"], math.inf
    try:
        records = [json.loads(line) for line in text.splitlines()]
    except ValueError as exc:
        return [f"records are not JSON lines ({exc})"], math.inf
    problems = []
    if not all(_finite(r) for r in records):
        problems.append("non-finite number in the records")
    n, found = cells(workload, records)
    items = (sum(r.get("record") == "replication" for r in records)
             if workload == "simulate" else len(found))
    if items != expected_items(workload, size):
        problems.append(f"{items} items, expected "
                        f"{expected_items(workload, size)}")
    for rec in records:
        if rec.get("record") == "aggregate" and rec["failures"]:
            problems.append(f"{rec['failures']} study replications failed")
        if rec.get("failed"):
            problems.append(f"replication {rec['rep']} failed: {rec['error']}")
    worst = 0.0
    for key, (est, sd) in found.items():
        coef = truth[key.split(":")[-1]]
        worst = max(worst, abs(est - coef) / (sd / math.sqrt(n)))
    if not worst <= max_z:
        problems.append(f"an estimate lies {worst:.2f} standard errors from "
                        f"the truth (screen {max_z})")
    return problems, worst


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", f"{workload}.jsonl")


def compare_reference(workload: str, text: str) -> tuple[float, bool]:
    """(max |estimate - reference| / (sd / sqrt(n)), byte-identical)."""
    try:
        with open(reference_path(workload), encoding="utf-8") as fh:
            ref_text = fh.read()
    except FileNotFoundError:
        return math.inf, False
    n, ref = cells(workload, [json.loads(x) for x in ref_text.splitlines()])
    _, got = cells(workload, [json.loads(x) for x in text.splitlines()])
    if set(got) != set(ref):
        return math.inf, False
    dev = max(abs(got[k][0] - est) / (sd / math.sqrt(n))
              for k, (est, sd) in ref.items())
    return dev, text == ref_text


# ---------------------------------------------------------------------------
# a run


def _median(values):
    return statistics.median(values) if values else 0.0


def adjusted(seconds: float, speed: list[float]) -> float:
    """A timing rescaled to full host speed, from the speed kernel's times
    sampled while it was taken."""
    return seconds * SPEED_REFERENCE_S / statistics.fmean(speed)


def layer_metrics(traced: list[dict], checks: Checks) -> dict:
    """Median per-layer times over traced repeats; counts must repeat."""
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        if name.endswith(EXACT_SUFFIXES):
            values = [s["layers"][name] for s in traced]
            if any(v != value for v in values):
                checks.flag(f"count {name} differs between repeats: {values}")
            out[name] = value
        else:
            out[name] = _median([adjusted(s["layers"][name], s["speed_s"])
                                 for s in traced])
    for stats in traced:
        accounted = sum(stats["layers"][f"{layer}.self_s"] for layer in LAYERS)
        if abs(accounted - stats["wall_s"]) > 0.01 * stats["wall_s"]:
            checks.flag(f"layer self times sum to {accounted:.4f} s, traced "
                        f"wall {stats['wall_s']:.4f} s")
    return out


def dataset_seed(seed: int, k: int) -> int:
    """Seed of the k-th dataset of a run: its inputs and the command's --seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _load_truth(in_dir: str) -> dict:
    with open(os.path.join(in_dir, "truth.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_check(workload: str, config: dict, run_dir: str,
                    checks: Checks) -> tuple[float, bool]:
    """Run the small fixed-seed command and compare with the stored records."""
    spec = config["workloads"][workload]
    seed, size = spec["check"]["seed"], spec["check"]["size"]
    check_dir = os.path.join(run_dir, "check")
    setup_inputs(workload, "check", seed, check_dir)
    stats, text, err = run_once(command_argv(spec, size, seed), check_dir,
                                run_dir, "reference", False)
    ref_dev, identical = math.inf, False
    if stats["exit_code"] != 0:
        problems = [f"reference check exited {stats['exit_code']}: "
                    f"{err.strip()[-500:]}"]
    else:
        problems, _ = check_records(workload, size, text,
                                    _load_truth(check_dir),
                                    config["sanity_max_z"])
        if not problems:
            ref_dev, identical = compare_reference(workload, text)
    checks.command(problems)
    if not ref_dev <= config["ref_tolerance_se"]:
        checks.flag(f"reference records deviate by {ref_dev:.3g} standard "
                    f"errors (tolerance {config['ref_tolerance_se']})")
    return ref_dev, identical


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str) -> dict:
    config = load_workloads()
    spec = config["workloads"][workload]
    size = spec["size"] if size_name == "full" else spec["check"]["size"]
    # Work per dataset varies with the draw (solver iterations follow the
    # sample's conditioning), so an untraced run cycles through several
    # datasets of its seed.  A traced run profiles the first one only.
    datasets = 1 if trace else spec["datasets"]
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(run_dir)
    checks = Checks()
    try:
        # set-up: fresh processes taking the datasets in turn, each at least
        # once; the set-up time is their median, and a dataset set up twice
        # must come out byte-identical
        inputs = [os.path.join(run_dir, f"inputs-{k}") for k in range(datasets)]
        setups, digests = [], {}
        for i in range(1 if trace else max(config["setups"], datasets)):
            k = i % datasets
            elapsed, report = setup_inputs(workload, size_name,
                                           dataset_seed(seed, k), inputs[k])
            setups.append(adjusted(elapsed, report["speed_s"]))
            if digests.setdefault(k, report["sha256"]) != report["sha256"]:
                checks.flag(f"dataset {k}: set-up wrote different inputs "
                            f"for the same seed")

        # timed repeats: untraced passes over the datasets, or untraced,
        # traced, traced on the first dataset; each dataset at least twice
        pattern = ([(0, False), (0, True), (0, True)] if trace
                   else [(k, False) for k in range(datasets)])
        minimum = len(pattern) if trace else 2 * len(pattern)
        plain, traced, first_text, max_z = [], [], {}, 0.0
        start = time.perf_counter()
        i = 0
        while True:
            k, is_traced = pattern[i % len(pattern)]
            t0 = time.perf_counter()
            stats, text, err = run_once(
                command_argv(spec, size, dataset_seed(seed, k)), inputs[k],
                run_dir, f"{tag}-{i}", is_traced)
            cost = time.perf_counter() - t0
            problems = []
            if stats["exit_code"] != 0:
                problems.append(f"dataset {k} exited {stats['exit_code']}: "
                                f"{err.strip()[-500:]}")
            elif k not in first_text:
                first_text[k] = text
                found, z = check_records(workload, size, text,
                                         _load_truth(inputs[k]),
                                         config["sanity_max_z"])
                problems += found
                max_z = max(max_z, z)
            elif text != first_text[k]:
                problems.append(f"dataset {k}: records differ between two "
                                f"runs of the same seed"
                                + (" (traced and untraced)" if trace else ""))
            checks.command(problems)
            if stats["exit_code"] == 0:
                (traced if is_traced else plain).append(stats)
            i += 1
            if (i >= minimum
                    and time.perf_counter() - start + cost > seconds):
                break

        ref_dev, ref_identical = reference_check(workload, config, run_dir,
                                                 checks)

        walls = [adjusted(s["wall_s"], s["speed_s"]) for s in plain]
        metrics = {}
        if trace and traced:
            metrics = layer_metrics(traced, checks)
            metrics["trace.wall_s"] = _median(
                [adjusted(s["wall_s"], s["speed_s"]) for s in traced])
            metrics["trace.overhead_frac"] = (
                metrics["trace.wall_s"] / _median(walls) - 1.0
                if walls else 0.0)
            kept = os.path.join(OUT, "results", f"{tag}.spans.jsonl")
            os.makedirs(os.path.dirname(kept), exist_ok=True)
            shutil.copyfile(traced[0]["spans_path"], kept)
            for name, where in traced[0]["bindings"].items():
                if not where:
                    checks.flag(f"traced function {name} is bound nowhere")
        elif walls and not trace:
            wall = _median(walls)
            metrics = {
                "setup_s": _median(setups),
                "wall_s": wall,
                "items_per_s": expected_items(workload, size) / wall,
                "peak_rss_mb": _median([s["maxrss_kb"] / 1024.0
                                        for s in plain]),
            }
        return {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "size": size, "size_name": size_name,
            "datasets": [dataset_seed(seed, k) for k in range(datasets)],
            "why": spec["why"], "heavy_layers": spec["heavy_layers"],
            "light_layers": spec["light_layers"],
            "env": (plain or traced or [{}])[0].get("env"),
            "speed_reference_s": SPEED_REFERENCE_S,
            "input_sha256": [digests[k] for k in range(datasets)],
            "setup_s": setups,
            "wall_s": walls, "raw_wall_s": [s["wall_s"] for s in plain],
            "traced_wall_s": [s["wall_s"] for s in traced],
            "speed_s": [statistics.fmean(s["speed_s"]) for s in plain + traced],
            "peak_rss_kb": [s["maxrss_kb"] for s in plain + traced],
            "max_z": max_z, "ref_dev_se": ref_dev,
            "ref_identical": ref_identical,
            "failed_frac": checks.failed / max(checks.attempted, 1),
            "attempted": checks.attempted, "failed": checks.failed,
            "problems": checks.problems, "metrics": metrics,
            "bindings": traced[0]["bindings"] if traced else None,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def make_reference(workload: str) -> int:
    spec = load_workloads()["workloads"][workload]
    work = os.path.join(OUT, f"reference-{workload}-{os.getpid()}")
    try:
        setup_inputs(workload, "check", spec["check"]["seed"], work)
        argv = command_argv(spec, spec["check"]["size"], spec["check"]["seed"])
        stats, text, err = run_once(argv, work, work, "reference", False)
        if stats["exit_code"] != 0 or text is None:
            print(f"error: reference command failed:\n{err}", file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(reference_path(workload)), exist_ok=True)
        with open(reference_path(workload), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        print(f"wrote {os.path.relpath(reference_path(workload), ROOT)}")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the eivbands CLI on one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "check"), default="full",
                        help="'check' runs the small reference size")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "eivbands", "cli.py")):
        print(f"error: no eivbands sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in load_workloads()["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63:
        print("error: --seed must be a nonnegative 63-bit integer",
              file=sys.stderr)
        return 2
    if args.make_reference:
        return make_reference(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(
        OUT, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            result["problems"].append(f"metric {m['name']} was not measured")
            print(f"FAIL: metric {m['name']} was not measured", file=sys.stderr)
            continue
        metrics[m["name"]] = {"value": result["metrics"][m["name"]],
                              "unit": m["unit"]}
    for name, entry in metrics.items():
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}")
    print(f"{args.workload}  ref_dev_se = {result['ref_dev_se']:.6g} SE units")
    print(f"{args.workload}  failed_frac = {result['failed_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"{args.workload}  samples = {len(result['wall_s'])} untraced, "
          f"{len(result['traced_wall_s'])} traced; result in "
          f"{os.path.relpath(result_path, ROOT)}")
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
