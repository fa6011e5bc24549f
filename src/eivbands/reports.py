"""Report rendering: line-delimited JSON records and an aligned text table.

The records are the one report model: each command's builder yields them one
at a time, and both renderers take any iterable of them.  The machine format
is one JSON object per line with sorted keys and a schema_version field on the
run header; identical inputs render to identical bytes (floats go through
repr, so values survive a parse round trip).  The table is a view of the same
records: a settings preamble (the run header, then the fields of the band or
aggregate record that the header lacks) and one row per item record.  Nothing
in either format depends on wall clock, host, or worker count.
"""

from __future__ import annotations

import json

import numpy as np

SCHEMA_VERSION = 1


def _plain(value):
    # encoder hook: NumPy scalars and arrays become Python values
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# one encoder for every record; json.dumps with keyword arguments would
# build a new one per record
_ENCODER = json.JSONEncoder(sort_keys=True, default=_plain)


def render_records(records) -> str:
    """The text of an iterable of records, one JSON line each."""
    return "\n".join(map(_ENCODER.encode, records)) + "\n"


def run_header(command: str, **settings) -> dict:
    return {"record": "run", "schema_version": SCHEMA_VERSION,
            "command": command, **settings}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "yes" if value else "no"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6g}"
    return str(value)


def _study_mean_bias(rec: dict):
    return "" if rec.get("failed") else float(np.mean(rec["biases"]))


# command -> (title, row record kind, columns).  A column is a record key,
# shown under its own name and dropped when no row has it, or a
# (label, function of the row record) pair.
_TABLES = {
    "fit": ("corrected lasso fit", "coefficient",
            ["name", "index", ("coefficient", lambda r: r["value"])]),
    "infer": ("debiased inference", "target",
              ["name", "estimate", "sd", "ci_low", "ci_high", "band_low",
               "band_high"]),
    "graph": ("conditional-association graph", "edge",
              ["source", "partner", "estimate", "band_low", "band_high",
               "zero_in_band"]),
    "simulate": ("simulation study", "replication", [
        "rep", ("status", lambda r: "failed" if r.get("failed") else "ok"),
        ("error", lambda r: r.get("error_kind", "")), "reject",
        ("mean_bias", _study_mean_bias)]),
}
# records whose fields join the run header in the table preamble
_SUMMARY_KINDS = ("band", "aggregate")


def render_table(records) -> str:
    """Aligned text block: a settings preamble then one row per item record."""
    records = list(records)
    header = records[0]
    title, kind, spec = _TABLES[header["command"]]
    settings = {k: v for k, v in header.items()
                if k not in ("record", "schema_version", "command")}
    for rec in records:
        if rec["record"] in _SUMMARY_KINDS:
            settings.update((k, v) for k, v in rec.items() if k not in header)
    rows = [r for r in records if r["record"] == kind]
    columns = [c for c in spec
               if not isinstance(c, str) or any(c in r for r in rows)]
    out = [title]
    for key, value in settings.items():
        out.append(f"  {key} = {_fmt(value)}")
    if rows:
        labels = [c if isinstance(c, str) else c[0] for c in columns]
        cells = [[_fmt(r.get(c, "") if isinstance(c, str) else c[1](r))
                  for c in columns] for r in rows]
        widths = [max(len(labels[k]), *(len(r[k]) for r in cells))
                  for k in range(len(labels))]
        out.append("")
        out.append("  ".join(c.ljust(w) for c, w in zip(labels, widths)))
        out.append("  ".join("-" * w for w in widths))
        for r in cells:
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# record builders


def fit_records(fit, names: list[str], n: int, gamma_source: str,
                truncation: float):
    yield run_header(
        "fit", n=n, p=len(fit.beta), gamma_source=gamma_source,
        penalty=fit.penalty, radius=fit.radius, truncation=truncation,
        iterations=fit.iterations, converged=bool(fit.converged),
        kkt_residual=fit.kkt_residual, objective=fit.objective)
    for j in np.flatnonzero(fit.beta):
        yield {"record": "coefficient", "index": int(j) + 1,
               "name": names[j], "value": float(fit.beta[j])}


def inference_records(table, band, names: list[str], gamma_source: str):
    settings = {"n": table.n, "p": len(table.pilot.beta),
                "alpha": table.alpha, "noise": table.noise_kind,
                "gamma_source": gamma_source, "variance_at": table.variance_at,
                "penalty": table.pilot.penalty, "radius": table.pilot.radius,
                "pilot_iterations": table.pilot.iterations,
                "pilot_converged": bool(table.pilot.converged)}
    if band is not None:
        settings.update(draws=band.draws, seed=band.seed)
    yield run_header("infer", **settings)
    if band is not None:
        yield {"record": "band", "critical_value": band.critical_value,
               "alpha": band.alpha, "draws": band.draws, "seed": band.seed}
    for k, cell in enumerate(table.cells):
        rec = {"record": "target", "index": cell.j + 1, "name": names[cell.j],
               "estimate": cell.estimate, "sd": cell.sd,
               "ci_low": cell.ci_low, "ci_high": cell.ci_high}
        if band is not None:
            rec["band_low"] = float(band.lower[k])
            rec["band_high"] = float(band.upper[k])
        yield rec


def graph_records(settings: dict, sources: list[int], pilots, band,
                  names: list[str]):
    """The run header, a node record per source's pilot fit, and an edge
    record per band column; edge e is source `sources[e // (p - 1)]`'s."""
    yield run_header("graph", **settings)
    for j, fit in zip(sources, pilots):
        yield {"record": "node", "name": names[j], "index": j + 1,
               "penalty": fit.penalty, "radius": fit.radius,
               "iterations": fit.iterations, "converged": bool(fit.converged),
               "kkt_residual": fit.kkt_residual}
    for e, (t, est, sd, lo, hi) in enumerate(zip(
            band.targets, band.estimates, band.sds, band.lower, band.upper)):
        j = sources[e // (len(names) - 1)]
        yield {"record": "edge", "source": names[j], "source_index": j + 1,
               "partner": names[t], "partner_index": t + 1, "estimate": est,
               "sd": sd, "band_low": lo, "band_high": hi,
               "zero_in_band": bool(lo <= 0.0 <= hi)}


def study_records(cfg, report):
    support = np.flatnonzero(cfg.beta0)
    yield run_header(
        "simulate", n=cfg.n, p=cfg.p, measurement_sd=cfg.measurement_sd,
        model_sd=cfg.model_sd, ar_rho=cfg.ar_rho, method=cfg.method,
        noise_mode=cfg.noise_mode, miss_prob=cfg.miss_prob,
        replications=cfg.replications, alpha=cfg.alpha,
        boot_draws=cfg.boot_draws, seed=cfg.seed, variance_at=cfg.variance_at,
        targets=[int(j) + 1 for j in cfg.targets],
        null_values=list(cfg.null_values),
        beta_support=[int(j) + 1 for j in support],
        beta_values=[float(cfg.beta0[j]) for j in support],
        penalty_scale=cfg.solver.penalty_scale, tol=cfg.solver.tol,
        max_iter=cfg.solver.max_iter)
    yield {"record": "aggregate", "rejection_rate": report.rejection_rate,
           "mean_bias": report.mean_bias, "rejection_se": report.rejection_se,
           "replications": report.replications,
           "completed": report.completed, "failures": report.failures}
    for r in report.records:
        yield {"record": "replication", **r}
