"""Child process of the benchmark: makes inputs, or runs one CLI command.

    worker.py setup --workload NAME --variant full|check --seed N --dir DIR
    worker.py cmd --argv JSON --run-id ID --stats FILE [--spans FILE]

`setup` draws the workload's inputs from the seed with NumPy alone, so the
inputs do not depend on the program under test, writes the dataset CSV, the
noise file and the truth the outputs are screened against, and reads the
files back through the program's own readers as a warm-up.  It prints the
SHA-256 of each file it wrote and the host-speed samples taken meanwhile.

`cmd` imports the program, then times `eivbands.cli.main` alone and records
the exit code, wall time, host-speed samples, peak resident memory and the
host's numeric stack.  With --spans it traces the call (see tracing.py),
writes the spans as JSON lines and adds the per-layer summary to the stats.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _ar1(rng, n: int, p: int, rho: float) -> np.ndarray:
    # stationary AR(1) columns, corr(x_j, x_k) = rho^|j-k|; elementwise only,
    # so the inputs do not depend on the BLAS build
    e = rng.standard_normal((n, p))
    x = np.empty((n, p))
    x[:, 0] = e[:, 0]
    scale = np.sqrt(1.0 - rho * rho)
    for k in range(1, p):
        x[:, k] = rho * x[:, k - 1] + scale * e[:, k]
    return x


def _graph_truth(p: int, rho: float) -> dict:
    # regression of x_j on the other columns of an AR(1) design: only the
    # neighbours enter, with rho at the two ends and rho / (1 + rho^2) inside
    truth = {}
    for j in range(p):
        neighbour = rho if j in (0, p - 1) else rho / (1.0 + rho * rho)
        for k in range(p):
            if k != j:
                truth[f"{j + 1}-{k + 1}"] = neighbour if abs(j - k) == 1 else 0.0
    return truth


def make_inputs(workload: str, size: dict, seed: int, out_dir: str) -> dict:
    """Write the inputs of one workload; returns {file name: sha256}."""
    names = list(load_workloads()["workloads"])
    rng = np.random.default_rng([seed, names.index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    if workload == "simulate":
        # the study draws its own data from --seed; its ten targets are nulls
        truth = {f"{t + 1}": 0.0 for t in range(10)}
    else:
        n, p = size["n"], size["p"]
        x = _ar1(rng, n, p, size["ar_rho"])
        z = x + size["sigma_w"] * rng.standard_normal((n, p))
        header = [f"z{k + 1}" for k in range(p)]
        columns = [z[:, k] for k in range(p)]
        if size["response"]:
            support = np.sort(rng.choice(p, size["signals"], replace=False))
            y = x[:, support].sum(axis=1) + rng.standard_normal(n)
            header = ["y", *header]
            columns = [y, *columns]
            truth = {f"{k + 1}": float(k in support) for k in range(p)}
        else:
            truth = _graph_truth(p, size["ar_rho"])
        rows = [",".join(header)]
        for i in range(n):
            rows.append(",".join(repr(float(c[i])) for c in columns))
        files["data.csv"] = "\n".join(rows) + "\n"
        files["noise.txt"] = f"{size['sigma_w'] ** 2!r}\n" * p
    files["truth.json"] = json.dumps(truth, sort_keys=True) + "\n"

    digests = {}
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        digests[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def warm_up(workload: str, size: dict, out_dir: str) -> None:
    """Read the written inputs back through the program's readers."""
    from eivbands import dataio

    if workload == "simulate":
        return
    data, names = dataio.read_dataset_csv(
        os.path.join(out_dir, "data.csv"), require_response=size["response"])
    dataio.read_noise_csv(os.path.join(out_dir, "noise.txt"), len(names))
    if data.Z.shape != (size["n"], size["p"]):
        raise SystemExit(f"setup: read back {data.Z.shape}, expected "
                         f"({size['n']}, {size['p']})")


def _openblas(path: str) -> dict:
    # build string and thread count of one loaded OpenBLAS
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_",
                 "openblas{}"):
        threads = getattr(lib, name.format("_get_num_threads"), None)
        config = getattr(lib, name.format("_get_config"), None)
        if threads is not None and config is not None:
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"library": os.path.basename(path),
                    "vendor": config().decode(), "threads": threads()}
    return {"library": os.path.basename(path), "vendor": "unknown",
            "threads": None}


def numeric_stack() -> dict:
    """nproc, BLAS vendor and thread count, NumPy and SciPy versions."""
    import scipy

    # NumPy and SciPy each load their own OpenBLAS
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": [_openblas(path) for path in paths],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


_G = np.random.default_rng(0).standard_normal((30, 30))


def _kernel() -> None:
    # fixed small-array NumPy work like the solver's inner loop, about 0.2 ms
    # at full speed; arrays this small keep the interpreter lock
    v = np.ones(30)
    for _ in range(25):
        w = _G @ v
        v = np.sign(w) * np.maximum(np.abs(w) - 0.01, 0.0)
        v = v / np.linalg.norm(v)


class SpeedTrace:
    """Samples the CPU time a fixed small kernel takes, every `interval`
    seconds, on a background thread while the command runs.

    CPU time of the sampling thread excludes its waits for the interpreter
    lock, so the samples follow the speed the host gives this process.  The
    thread holds the lock about 1% of the time.
    """

    def __init__(self, interval: float = 0.03):
        self.interval = interval
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.thread_time()
            _kernel()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "SpeedTrace":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def run_command(argv: list[str], run_id: str, stats_path: str,
                spans_path: str | None) -> None:
    from eivbands import cli

    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer(run_id)
        tracer.install()
    with SpeedTrace() as speed:
        start = time.perf_counter()
        code = tracer.call(cli.main, argv) if tracer else cli.main(argv)
        wall = time.perf_counter() - start
    stats = {"run": run_id, "exit_code": code, "wall_s": wall,
             "speed_s": speed.samples,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             "env": numeric_stack()}
    if tracer:
        tracer.write_spans(spans_path)
        stats["layers"] = tracing.summarize(tracer.spans)
        stats["bindings"] = tracer.bindings
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="mode", required=True)
    setup = subs.add_parser("setup")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--variant", choices=("full", "check"), required=True)
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--dir", required=True)
    cmd = subs.add_parser("cmd")
    cmd.add_argument("--argv", required=True)
    cmd.add_argument("--run-id", required=True)
    cmd.add_argument("--stats", required=True)
    cmd.add_argument("--spans")
    args = parser.parse_args()

    if args.mode == "setup":
        spec = load_workloads()["workloads"][args.workload]
        size = spec["size"] if args.variant == "full" else spec["check"]["size"]
        with SpeedTrace() as speed:
            digests = make_inputs(args.workload, size, args.seed, args.dir)
            warm_up(args.workload, size, args.dir)
        print(json.dumps({"sha256": digests, "speed_s": speed.samples},
                         sort_keys=True))
    else:
        run_command(json.loads(args.argv), args.run_id, args.stats, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
