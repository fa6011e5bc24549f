"""Command-line surface.

Subcommands: fit (pilot corrected lasso only), infer (debiased estimates and
intervals, and with --bands the simultaneous band even for one target),
graph (conditional-association edges among the columns), simulate (Monte
Carlo studies).  Exit codes: 0 success, 2 input error, 3 numerical error,
4 degeneracy.

Each subcommand declares only the flags it reads.  Reports never include
wall-clock data or the worker count (simulate's `--workers`), so a rerun
with the same seed is byte-identical regardless of parallelism.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import dataio, reports, simstudy
from .bootstrap import simultaneous_bands
from .debias import (
    VARIANCE_CONVENTIONS,
    graph_tables,
    prepare_pilot,
    run_inference,
)
from .errors import DegeneracyError, EivbandsError, InputError, check_integer
from .lasso import Dataset, NoiseSpec, SolverConfig


class _Parser(argparse.ArgumentParser):
    # surface argparse's own failures through the normal exit-code path
    def error(self, message):
        raise InputError(message)


def _positive(value: float, flag: str) -> float:
    if not value > 0:
        raise InputError(f"{flag} must be positive (got {value})")
    if not np.isfinite(value):
        raise InputError(f"{flag} must be finite (got {value})")
    return value


def _check_common(args) -> None:
    # simulate leaves --alpha, --boot and --seed at None for the study to fill
    if args.alpha is not None and not 0.0 < args.alpha < 1.0:
        raise InputError(
            f"--alpha must lie strictly between 0 and 1 (got {args.alpha})")
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        raise InputError(
            f"--seed must be an unsigned 64-bit integer (got {args.seed})")
    if args.boot is not None and args.boot < 1:
        raise InputError(f"--boot must be at least 1 (got {args.boot})")
    _check_solver_flags(args)


def _check_solver_flags(args) -> None:
    _positive(args.lambda_scale, "--lambda-scale")
    if args.tol is not None:
        _positive(args.tol, "--tol")
    if args.max_iter is not None and args.max_iter < 1:
        raise InputError(f"--max-iter must be at least 1 (got {args.max_iter})")


def _solver_from(args, base: SolverConfig = SolverConfig()) -> SolverConfig:
    changes = {"penalty_scale": base.penalty_scale * args.lambda_scale}
    if args.tol is not None:
        changes["tol"] = args.tol
    if args.max_iter is not None:
        changes["max_iter"] = args.max_iter
    return dataclasses.replace(base, **changes)


def _resolve_targets(spec: str, names: list[str]) -> list[int]:
    """Parse --targets: 'all', or a comma list of names / 1-based positions."""
    if spec.strip() == "all":
        return list(range(len(names)))
    out = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise InputError("--targets has an empty entry")
        if token in names:
            out.append(names.index(token))
            continue
        try:
            pos = int(token)
        except ValueError:
            raise InputError(
                f"--targets entry {token!r} is neither a column name nor a "
                "1-based position") from None
        if not 1 <= pos <= len(names):
            raise InputError(
                f"--targets position {pos} out of range 1..{len(names)}")
        out.append(pos - 1)
    if len(set(out)) != len(out):
        raise InputError("--targets lists a column twice")
    return out


def _load_regression(args) -> tuple[Dataset, list[str], NoiseSpec, str]:
    data, names = dataio.read_dataset_csv(args.input, require_response=True,
                                          allow_missing=args.mar)
    if args.mar:
        return data, names, NoiseSpec.mar(), "estimated"
    gamma = dataio.read_noise_csv(args.gamma, len(names))
    return data, names, NoiseSpec.known(gamma), args.gamma


def _named(exc: DegeneracyError, where) -> DegeneracyError:
    """`exc` naming `where(column)` in place of its column index, if any."""
    if exc.coordinate is None:
        return exc
    reason = str(exc).removesuffix(f" for column {exc.coordinate}")
    return DegeneracyError(f"{reason} for {where(exc.coordinate)}",
                           coordinate=exc.coordinate)


def _emit(args, records) -> int:
    render = (reports.render_records if args.format == "records"
              else reports.render_table)
    text = render(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    _check_solver_flags(args)
    data, names, noise, gamma_source = _load_regression(args)
    cfg = _solver_from(args)
    prepared = prepare_pilot(data, noise, cfg)
    return _emit(args, reports.fit_records(prepared.fit, names, data.n,
                                           gamma_source, cfg.truncation))


def cmd_infer(args) -> int:
    _check_common(args)
    data, names, noise, gamma_source = _load_regression(args)
    targets = _resolve_targets(args.targets, names)
    cfg = _solver_from(args)
    try:
        table = run_inference(data, noise, targets, args.alpha, cfg,
                              args.variance_at)
    except DegeneracyError as exc:
        raise _named(exc, lambda t: f"target {names[t]}") from None
    band = None
    if args.bands or len(targets) >= 2:
        band = simultaneous_bands(table, args.boot, args.seed)
    return _emit(args, reports.inference_records(table, band, names,
                                                 gamma_source))


def cmd_graph(args) -> int:
    _check_common(args)
    if args.gamma is None:
        raise InputError("graph requires --gamma (known noise variances)")
    data, names = dataio.read_dataset_csv(args.input, require_response=False,
                                          allow_missing=False)
    gamma = dataio.read_noise_csv(args.gamma, data.p)
    sources = _resolve_targets(args.targets, names)
    cfg = _solver_from(args)

    pilots = []

    def tables():
        # each source's pilot fit, kept as its table goes into the band; the
        # band keeps every edge's partner, estimate and sd
        for table in graph_tables(data.Z, gamma, sources, args.alpha, cfg,
                                  args.variance_at):
            pilots.append(table.pilot)
            yield table

    try:
        band = simultaneous_bands(tables(), args.boot, args.seed)
    except DegeneracyError as exc:
        where = f"source {names[sources[len(pilots)]]}, partner "
        raise _named(exc, lambda t: where + names[t]) from None

    settings = {"n": data.n, "p": data.p, "alpha": args.alpha,
                "gamma_source": args.gamma, "draws": args.boot,
                "seed": args.seed, "critical_value": band.critical_value,
                "variance_at": args.variance_at, "edges": len(band.targets)}
    return _emit(args, reports.graph_records(settings, sources, pilots, band,
                                             names))


def _study_config(args) -> simstudy.SimConfig:
    _check_common(args)
    if args.workers < 1:
        raise InputError(f"--workers must be at least 1 (got {args.workers})")
    if args.replications is not None and args.replications < 1:
        raise InputError(
            f"--replications must be at least 1 (got {args.replications})")

    # precedence: preset defaults < config file < explicit flags
    fields = {}
    if args.config:
        try:
            fields = json.loads("".join(dataio.read_lines(args.config)))
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(fields, dict):
            raise InputError(f"{args.config}: expected a JSON object")
        known = {f.name for f in dataclasses.fields(simstudy.SimConfig)}
        bad = sorted(set(fields) - known - {"solver"})
        if bad:
            raise InputError(f"{args.config}: unknown study fields {bad}")
    solver_over = fields.pop("solver", {})
    if not isinstance(solver_over, dict):
        raise InputError(f"{args.config}: 'solver' must be a JSON object")
    known = {f.name for f in dataclasses.fields(SolverConfig)}
    bad = sorted(set(solver_over) - known)
    if bad:
        raise InputError(f"{args.config}: unknown solver fields {bad}")

    if args.full:
        fields.update(n=350, p=300, replications=500)
    for flag, field in (("n", "n"), ("p", "p"), ("seed", "seed"),
                        ("method", "method"),
                        ("replications", "replications"),
                        ("sigma_w", "measurement_sd"),
                        ("alpha", "alpha"), ("boot", "boot_draws"),
                        ("variance_at", "variance_at"),
                        ("miss_prob", "miss_prob"),
                        ("noise_mode", "noise_mode")):
        value = getattr(args, flag)
        if value is not None:
            fields[field] = value
    if args.preset == "multi":
        if args.target_value is not None:
            raise InputError("--target-value applies to --preset single only")
        builder = simstudy.multi_target_study
    else:
        builder = simstudy.single_target_study
        if args.target_value is not None:
            fields["target_value"] = args.target_value
    try:
        # file targets are 1-based; SimConfig converts beta0 and null_values
        if "targets" in fields:
            for t in fields["targets"]:
                check_integer("target", t)
            fields["targets"] = [t - 1 for t in fields["targets"]]
        cfg = builder(**fields)
        solver = dataclasses.replace(cfg.solver, **solver_over)
        return dataclasses.replace(cfg, solver=_solver_from(args, solver))
    except InputError as exc:
        if args.config:
            raise InputError(f"{args.config}: {exc}") from None
        raise
    except (TypeError, ValueError) as exc:
        # a value of the wrong type fails inside NumPy or a comparison
        raise InputError(
            f"{args.config or 'simulate'}: invalid value ({exc})") from None


def cmd_simulate(args) -> int:
    cfg = _study_config(args)
    if args.dump_data:
        first = simstudy.generate(cfg, 0)
        dataio.write_dataset_csv(args.dump_data, first)
    report = simstudy.run_study(cfg, workers=args.workers)
    return _emit(args, reports.study_records(cfg, report))


# ---------------------------------------------------------------------------
# parser


def _add_io_flags(sub) -> None:
    sub.add_argument("--input", required=True, help="dataset CSV path")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", help="noise-variance file, one value per line")
    group.add_argument("--mar", action="store_true",
                       help="treat NA/empty cells as missing at random and "
                            "estimate the noise variances")


def _add_inference_flags(sub) -> None:
    sub.add_argument("--alpha", type=float, default=0.05,
                     help="level: intervals cover at 1 - alpha (default 0.05)")
    sub.add_argument("--boot", type=int, default=1000,
                     help="bootstrap draws (default 1000; simulate: 500 per "
                          "replication)")
    sub.add_argument("--seed", type=int, default=0,
                     help="bootstrap seed (default 0); simulate seeds both "
                          "the data and the bootstrap with it")
    sub.add_argument("--variance-at", choices=VARIANCE_CONVENTIONS,
                     default="debiased", dest="variance_at",
                     help="where the plug-in variance evaluates the scores")


def _add_shared_flags(sub) -> None:
    sub.add_argument("--lambda-scale", type=float, default=1.0,
                     dest="lambda_scale",
                     help="multiplier on the default l1 penalty, in simulate "
                          "on the study's (default 1.0)")
    sub.add_argument("--tol", type=float, default=None,
                     help="solver stationarity tolerance")
    sub.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                     help="solver iteration cap")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("table", "records"),
                     default="table",
                     help="human table or line-delimited JSON records")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eivbands",
                     description="Debiased inference for high-dimensional "
                                 "regression with noisy or partially missing "
                                 "covariates.")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="pilot corrected lasso only")
    _add_io_flags(fit)
    _add_shared_flags(fit)
    fit.set_defaults(func=cmd_fit)

    infer = subs.add_parser("infer", help="debiased estimates and intervals")
    _add_io_flags(infer)
    infer.add_argument("--targets", default="all",
                       help="comma list of column names or 1-based positions, "
                            "or 'all' (default)")
    infer.add_argument("--bands", action="store_true",
                       help="add the simultaneous band even for one target")
    _add_inference_flags(infer)
    _add_shared_flags(infer)
    infer.set_defaults(func=cmd_infer)

    graph = subs.add_parser("graph",
                            help="conditional-association edges among all "
                                 "columns (no response needed)")
    graph.add_argument("--input", required=True, help="dataset CSV path")
    # cmd_graph requires --gamma, so that argparse names a stray --mar
    # before it would name the missing --gamma
    graph.add_argument("--gamma", help="noise-variance file, one value per "
                                       "line (required)")
    graph.add_argument("--targets", default="all",
                       help="source nodes to scan (default all)")
    _add_inference_flags(graph)
    _add_shared_flags(graph)
    graph.set_defaults(func=cmd_graph)

    sim = subs.add_parser("simulate", help="Monte Carlo size/FWER studies")
    sim.add_argument("--preset", choices=("single", "multi"),
                     default="single",
                     help="single-target size study or multi-target "
                          "family-wise study")
    sim.add_argument("--method", choices=("eiv", "naive"), default=None,
                     help="noise-corrected pipeline or the naive baseline")
    sim.add_argument("--target-value", type=float, default=None,
                     dest="target_value",
                     help="true target coefficient; applies to --preset "
                          "single only")
    sim.add_argument("--noise-mode", choices=("known", "mar"), default=None,
                     dest="noise_mode")
    sim.add_argument("--miss-prob", type=float, default=None,
                     dest="miss_prob",
                     help="cell missingness rate in mar mode")
    sim.add_argument("--sigma-w", type=float, default=None, dest="sigma_w",
                     help="measurement noise standard deviation")
    sim.add_argument("--n", type=int, default=None, help="sample size")
    sim.add_argument("--p", type=int, default=None, help="dimension")
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--full", action="store_true",
                     help="full-scale design (n=350, p=300, 500 replications)")
    sim.add_argument("--config",
                     help="JSON file of study-config field overrides")
    sim.add_argument("--dump-data",
                     help="also write replication 0 as a dataset CSV here")
    sim.add_argument("--workers", type=int, default=1,
                     help="worker processes over replications; never changes "
                          "results")
    _add_inference_flags(sim)
    _add_shared_flags(sim)
    # an unset flag leaves the value to the preset or the config file
    sim.set_defaults(func=cmd_simulate, alpha=None, boot=None, seed=None,
                     variance_at=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except EivbandsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
