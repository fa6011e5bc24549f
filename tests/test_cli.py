"""End-to-end tests of the command-line surface.

Commands run in process through main(argv); reports in the records format
are parsed back as JSON lines and, where an oracle exists, compared against
the library path bit for bit (JSON floats round-trip float64 exactly).
"""

import filecmp
import json
import math

import numpy as np
import numpy.testing as npt
import pytest

from eivbands import bootstrap, cli, dataio, nodewise, reports, simstudy
from eivbands.bootstrap import critical_value, multiplier_maxima, \
    simultaneous_bands
from eivbands.cli import main
from eivbands.errors import (
    DegeneracyError,
    EivbandsError,
    InputError,
    NumericalError,
)
from eivbands.debias import graph_tables, run_inference
from eivbands.lasso import Dataset, NoiseSpec, SolverConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_records(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def write_regression(tmp_path, n=40, p=4, seed=0, sigma_w=0.5, name="data.csv"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    beta = np.zeros(p)
    beta[0] = 1.2
    beta[p - 1] = -0.7
    y = x @ beta + 0.3 * rng.normal(size=n)
    Z = x + sigma_w * rng.normal(size=(n, p))
    path = str(tmp_path / name)
    dataio.write_dataset_csv(path, Dataset(y=y, Z=Z))
    gamma = str(tmp_path / f"gamma_{name}.txt")
    with open(gamma, "w") as fh:
        fh.writelines(f"{sigma_w ** 2!r}\n" for _ in range(p))
    return path, gamma


# ---------------------------------------------------------------------------
# infer


def test_render_records_pins_numpy_values():
    # NumPy scalars and arrays, nested in lists and tuples, render as their
    # Python values; NaN as JSON's NaN; keys sorted, one record a line
    records = [{"i": np.int64(-3), "b": np.bool_(True), "f": np.float32(0.1),
                "a": np.array([[1.5, np.nan], [2.0, 3.0]]),
                "l": [np.float64(0.1), [np.int64(2), (np.bool_(False),)]],
                "nan": np.float64(np.nan), "x": 0.1},
               {"record": "run", "ints": np.arange(2)}]
    assert reports.render_records(records) == (
        '{"a": [[1.5, NaN], [2.0, 3.0]], "b": true, '
        '"f": 0.10000000149011612, "i": -3, "l": [0.1, [2, [false]]], '
        '"nan": NaN, "x": 0.1}\n'
        '{"ints": [0, 1], "record": "run"}\n')
    with pytest.raises(TypeError):
        reports.render_records([{"s": {1}}])


def test_renderers_take_any_iterable_of_records(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, out, _ = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--boot", "50", "--format", "records")
    assert code == 0
    records = parse_records(out)
    text = reports.render_records(r for r in records)
    assert isinstance(text, str)
    assert text == reports.render_records(records) == out
    assert reports.render_table(r for r in records) == \
        reports.render_table(records)


def test_infer_records_shape(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, out, err = run_cli(capsys, "infer", "--input", data, "--gamma",
                             gamma, "--targets", "z1", "--format", "records")
    assert code == 0 and err == ""
    records = parse_records(out)
    assert records[0]["record"] == "run"
    assert records[0]["schema_version"] == 1
    assert records[0]["command"] == "infer"
    assert records[0]["gamma_source"] == gamma
    targets = [r for r in records if r["record"] == "target"]
    assert len(targets) == 1
    assert targets[0]["name"] == "z1"
    assert targets[0]["index"] == 1
    assert targets[0]["ci_low"] < targets[0]["estimate"] < targets[0]["ci_high"]


def test_infer_matches_library_path(tmp_path, capsys):
    data_path, gamma_path = write_regression(tmp_path, seed=3)
    code, out, _ = run_cli(capsys, "infer", "--input", data_path, "--gamma",
                           gamma_path, "--targets", "z1,z4", "--boot", "200",
                           "--seed", "11", "--format", "records")
    assert code == 0
    records = parse_records(out)
    data, _ = dataio.read_dataset_csv(data_path)
    gamma = dataio.read_noise_csv(gamma_path, 4)
    table = run_inference(data, NoiseSpec.known(gamma), [0, 3])
    band = simultaneous_bands(table, 200, 11)
    targets = [r for r in records if r["record"] == "target"]
    for k, rec in enumerate(targets):
        assert rec["estimate"] == table.cells[k].estimate
        assert rec["sd"] == table.cells[k].sd
        assert rec["ci_low"] == table.cells[k].ci_low
        assert rec["band_low"] == band.lower[k]
        assert rec["band_high"] == band.upper[k]
    band_rec = next(r for r in records if r["record"] == "band")
    assert band_rec["critical_value"] == band.critical_value


def test_infer_zero_noise_matches_plain_debiased_lasso(tmp_path, capsys):
    # gamma = 0 degrades gracefully to the classical debiased pipeline
    data_path, _ = write_regression(tmp_path, seed=5, sigma_w=0.0)
    gamma_path = str(tmp_path / "zeros.txt")
    with open(gamma_path, "w") as fh:
        fh.write("0.0\n" * 4)
    code, out, _ = run_cli(capsys, "infer", "--input", data_path, "--gamma",
                           gamma_path, "--targets", "z2", "--format",
                           "records")
    assert code == 0
    rec = next(r for r in parse_records(out) if r["record"] == "target")
    data, _ = dataio.read_dataset_csv(data_path)
    table = run_inference(data, NoiseSpec.known(np.zeros(4)), [1])
    assert rec["estimate"] == table.cells[0].estimate
    assert rec["sd"] == table.cells[0].sd


def test_infer_multi_target_band_is_automatic(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, out, _ = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "z1,z2", "--format", "records")
    assert code == 0
    records = parse_records(out)
    assert any(r["record"] == "band" for r in records)
    assert all("band_low" in r for r in records if r["record"] == "target")


def test_infer_single_target_has_no_band_by_default(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, out, _ = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "z1", "--format", "records")
    assert code == 0
    records = parse_records(out)
    assert not any(r["record"] == "band" for r in records)


def test_bands_subcommand_forces_band(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, out, _ = run_cli(capsys, "bands", "--input", data, "--gamma", gamma,
                           "--targets", "z1", "--format", "records")
    assert code == 0
    assert any(r["record"] == "band" for r in parse_records(out))


def test_bands_subcommand_equals_infer_with_bands_flag(tmp_path, capsys):
    data, gamma = write_regression(tmp_path, seed=4)
    base = ("--input", data, "--gamma", gamma, "--targets", "z1", "--boot",
            "150", "--seed", "3", "--format", "records")
    a, b = str(tmp_path / "bands.ndjson"), str(tmp_path / "infer.ndjson")
    assert run_cli(capsys, "bands", *base, "--out", a)[0] == 0
    assert run_cli(capsys, "infer", *base, "--bands", "--out", b)[0] == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_targets_accept_positions_and_names(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code_a, out_a, _ = run_cli(capsys, "infer", "--input", data, "--gamma",
                               gamma, "--targets", "z1,3", "--format",
                               "records")
    code_b, out_b, _ = run_cli(capsys, "infer", "--input", data, "--gamma",
                               gamma, "--targets", "1,z3", "--format",
                               "records")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_table_format_is_default(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, out, _ = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "z1")
    assert code == 0
    assert "debiased inference" in out
    assert "estimate" in out


def test_out_flag_writes_file(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    out_path = str(tmp_path / "report.ndjson")
    code, out, _ = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "z1", "--format", "records", "--out",
                           out_path)
    assert code == 0
    assert out == ""
    records = parse_records(open(out_path, encoding="utf-8").read())
    assert records[0]["record"] == "run"


def test_mar_flag_estimates_noise(tmp_path, capsys):
    path = str(tmp_path / "holes.csv")
    rng = np.random.default_rng(2)
    n, p = 60, 3
    Z = rng.normal(size=(n, p))
    y = 1.5 * Z[:, 0] + 0.2 * rng.normal(size=n)
    mask = rng.uniform(size=(n, p)) > 0.15
    dataio.write_dataset_csv(path, Dataset(y=y, Z=np.where(mask, Z, 0.0),
                                           mask=mask))
    code, out, _ = run_cli(capsys, "infer", "--input", path, "--mar",
                           "--targets", "z1", "--format", "records")
    assert code == 0
    header = parse_records(out)[0]
    assert header["noise"] == "mar"
    assert header["gamma_source"] == "estimated"


# ---------------------------------------------------------------------------
# error paths and exit codes


def test_bad_alpha_names_flag(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, _, err = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--alpha", "1.5")
    assert code == 2
    assert "--alpha" in err and "1.5" in err


@pytest.mark.parametrize("command", [
    ("infer", "--targets", "z1,z2"),
    ("simulate", "--preset", "single", "--replications", "2"),
])
def test_alpha_with_an_infinite_quantile_exit_2(tmp_path, capsys, command):
    # at alpha <= 2^-53, 1 - alpha/2 rounds to 1: the intervals would be
    # infinite, which records cannot hold as JSON and which covers any null
    if command[0] == "infer":
        data, gamma = write_regression(tmp_path)
        command += ("--input", data, "--gamma", gamma)
    code, out, err = run_cli(capsys, *command, "--alpha", "1e-17")
    assert code == 2 and out == ""
    assert "alpha" in err and "1e-17" in err


def test_tiny_alpha_with_a_finite_quantile_gives_finite_records(tmp_path,
                                                                capsys):
    data, gamma = write_regression(tmp_path)
    code, out, _ = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "z1,z2", "--alpha", "1e-15",
                           "--format", "records")
    assert code == 0
    targets = [r for r in parse_records(out) if r["record"] == "target"]
    assert len(targets) == 2
    for record in targets:
        for field in ("ci_low", "ci_high", "band_low", "band_high"):
            assert math.isfinite(record[field]), field
        assert record["ci_low"] < record["estimate"] < record["ci_high"]


@pytest.mark.parametrize("exc, expected", [
    (InputError("bad input"), 2),
    (NumericalError("non-finite objective"), 3),
    (DegeneracyError("zero slope", coordinate=1), 4),
])
def test_error_classes_share_one_handler(tmp_path, capsys, monkeypatch, exc,
                                         expected):
    def fail(args):
        raise exc

    assert isinstance(exc, EivbandsError)
    monkeypatch.setattr(cli, "cmd_fit", fail)
    data, gamma = write_regression(tmp_path)
    code, out, err = run_cli(capsys, "fit", "--input", data, "--gamma", gamma)
    assert (code, out, err) == (expected, "", f"error: {exc}\n")


def test_degenerate_column_names_coordinate(tmp_path, capsys):
    # an all-zero column has zero projection residual, so the score slope
    # vanishes exactly when gamma = 0
    rng = np.random.default_rng(4)
    z = np.zeros(30)
    Z = np.column_stack([z, rng.normal(size=30), rng.normal(size=30)])
    y = Z[:, 1] + 0.1 * rng.normal(size=30)
    path = str(tmp_path / "dup.csv")
    dataio.write_dataset_csv(path, Dataset(y=y, Z=Z))
    gamma = str(tmp_path / "g0.txt")
    with open(gamma, "w") as fh:
        fh.write("0.0\n0.0\n0.0\n")
    for command in ("infer", "bands"):
        code, _, err = run_cli(capsys, command, "--input", path, "--gamma",
                               gamma, "--targets", "z1")
        assert code == 4
        assert err.endswith("is numerically zero for target z1\n")
        assert "column 0" not in err


def test_missing_cells_without_mar_exit_2(tmp_path, capsys):
    path = str(tmp_path / "na.csv")
    path_obj = tmp_path / "na.csv"
    path_obj.write_text("y,z1,z2\n1.0,NA,3.0\n2.0,1.0,4.0\n")
    gamma = str(tmp_path / "g.txt")
    (tmp_path / "g.txt").write_text("0.1\n0.1\n")
    code, _, err = run_cli(capsys, "infer", "--input", path, "--gamma", gamma)
    assert code == 2
    assert "missing" in err


def test_duplicate_headers_exit_2(tmp_path, capsys):
    (tmp_path / "dup.csv").write_text("y,z1,z1\n1,2,3\n4,5,6\n")
    (tmp_path / "g.txt").write_text("0.1\n0.1\n")
    code, _, err = run_cli(capsys, "infer", "--input",
                           str(tmp_path / "dup.csv"), "--gamma",
                           str(tmp_path / "g.txt"))
    assert code == 2
    assert "duplicate" in err


@pytest.mark.parametrize("which", [0, 1], ids=["input", "gamma"])
def test_non_utf8_input_exit_2(tmp_path, capsys, which):
    # the file re-saved as UTF-16, as spreadsheets export it
    files = list(write_regression(tmp_path))
    path = tmp_path / "utf16.txt"
    with open(files[which], encoding="utf-8") as fh:
        path.write_bytes(fh.read().encode("utf-16"))
    files[which] = str(path)
    code, out, err = run_cli(capsys, "infer", "--input", files[0], "--gamma",
                             files[1])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text")


def test_unknown_target_exit_2(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, _, err = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "zz9")
    assert code == 2
    assert "zz9" in err


def test_duplicate_target_exit_2(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, _, err = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--targets", "z1,1")
    assert code == 2
    assert "twice" in err


def test_missing_input_file_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "infer", "--input",
                           str(tmp_path / "nope.csv"), "--mar")
    assert code == 2
    assert "error" in err


def test_no_subcommand_exit_2(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2


def test_gamma_and_mar_conflict_exit_2(tmp_path, capsys):
    data, gamma = write_regression(tmp_path)
    code, _, err = run_cli(capsys, "infer", "--input", data, "--gamma", gamma,
                           "--mar")
    assert code == 2


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command}{flag[0]}")
    for command, flag in [
        ("infer", ("--workers", "2")), ("bands", ("--workers", "2")),
        ("graph", ("--workers", "2")), ("fit", ("--alpha", "0.1")),
        ("fit", ("--boot", "200")), ("fit", ("--seed", "3")),
        ("fit", ("--variance-at", "pilot")),
    ]
])
def test_flag_the_command_does_not_read_exit_2(tmp_path, capsys, command,
                                               flag):
    # each subcommand declares only the flags it reads
    data, gamma = write_regression(tmp_path)
    code, out, err = run_cli(capsys, command, "--input", data, "--gamma",
                             gamma, *flag)
    assert (code, out) == (2, "")
    assert flag[0] in err


# ---------------------------------------------------------------------------
# graph


def write_nodes(tmp_path, n=120, p=4, seed=0, name="nodes.csv"):
    cfg = simstudy.SimConfig(n=n, p=p, beta0=np.zeros(p), targets=(0,),
                             null_values=(0.0,), measurement_sd=0.0,
                             ar_rho=0.0, replications=1, seed=seed)
    data = simstudy.generate(cfg, 0)
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(",".join(f"z{k + 1}" for k in range(p)) + "\n")
        for row in data.Z:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    gamma = str(tmp_path / f"g_{name}.txt")
    with open(gamma, "w") as fh:
        fh.write("0.0\n" * p)
    return path, gamma


def test_no_command_computes_an_eigendecomposition(tmp_path, capsys,
                                                   monkeypatch):
    # every l1-ball radius is the O(p) diagonal rule, resolved before its
    # solve's first pass: infer (known noise and missing at random), graph
    # and simulate (both presets) run with eigh refusing, and every radius
    # they print is finite
    def refuse(*args, **kwargs):
        raise AssertionError("eigendecomposition computed")
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    data, gamma = write_regression(tmp_path, p=6)
    nodes, node_gamma = write_nodes(tmp_path, n=80, p=5)
    runs = [
        ("infer", "--input", data, "--gamma", gamma, "--boot", "50"),
        ("infer", "--input", data, "--mar", "--boot", "50"),
        ("graph", "--input", nodes, "--gamma", node_gamma, "--boot", "50"),
        ("simulate", "--n", "50", "--p", "8", "--replications", "2",
         "--boot", "50"),
        ("simulate", "--preset", "multi", "--noise-mode", "mar", "--n", "50",
         "--p", "12", "--replications", "2", "--boot", "50"),
    ]
    radii = []
    for argv in runs:
        code, out, err = run_cli(capsys, *argv, "--format", "records")
        assert code == 0, (argv, err)
        radii += [r["radius"] for r in parse_records(out) if "radius" in r]
    assert len(radii) == 1 + 1 + 5 and all(map(math.isfinite, radii))


def test_graph_rejects_mar(tmp_path, capsys):
    path, _ = write_nodes(tmp_path)
    code, _, err = run_cli(capsys, "graph", "--input", path, "--mar")
    assert code == 2
    assert "--mar" in err


def test_graph_requires_gamma(tmp_path, capsys):
    path, _ = write_nodes(tmp_path)
    code, out, err = run_cli(capsys, "graph", "--input", path)
    assert (code, out) == (2, "")
    assert "--gamma" in err


def test_graph_needs_no_response_column(tmp_path, capsys):
    path, gamma = write_nodes(tmp_path, n=50)
    code, out, _ = run_cli(capsys, "graph", "--input", path, "--gamma", gamma,
                           "--boot", "100", "--format", "records")
    assert code == 0
    records = parse_records(out)
    edges = [r for r in records if r["record"] == "edge"]
    assert len(edges) == 12  # 4 nodes, 3 partners each
    assert all(e["source"] != e["partner"] for e in edges)


def test_graph_single_source_matches_library_inference(tmp_path, capsys):
    # p = 2: one source gives one edge whose numbers must equal the plain
    # regression of node 1 on node 2 with the same bootstrap
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(50, 2))
    Z[:, 0] += 0.8 * Z[:, 1]
    path = str(tmp_path / "pair.csv")
    with open(path, "w") as fh:
        fh.write("z1,z2\n")
        for row in Z:
            fh.write(f"{float(row[0])!r},{float(row[1])!r}\n")
    gamma = str(tmp_path / "pair_g.txt")
    with open(gamma, "w") as fh:
        fh.write("0.0\n0.0\n")
    code, out, _ = run_cli(capsys, "graph", "--input", path, "--gamma", gamma,
                           "--targets", "z1", "--boot", "400", "--seed", "9",
                           "--format", "records")
    assert code == 0
    edge = next(r for r in parse_records(out) if r["record"] == "edge")
    sub = Dataset(y=Z[:, 0], Z=Z[:, 1:])
    table = run_inference(sub, NoiseSpec.known(np.zeros(1)), [0])
    band = simultaneous_bands(table, 400, 9)
    assert edge["estimate"] == table.cells[0].estimate
    assert edge["sd"] == table.cells[0].sd
    assert edge["band_low"] == band.lower[0]
    assert edge["band_high"] == band.upper[0]


def test_graph_records_follow_the_given_source_order(tmp_path, capsys):
    # node records in --targets order, and edge e of the band belongs to
    # source e // (p - 1), with the band's numbers bit for bit
    p = 5
    path, gamma = write_nodes(tmp_path, n=60, p=p, seed=3)
    code, out, _ = run_cli(capsys, "graph", "--input", path, "--gamma", gamma,
                           "--targets", "z4,z1", "--boot", "200", "--seed",
                           "2", "--format", "records")
    assert code == 0
    records = parse_records(out)
    data, names = dataio.read_dataset_csv(path, require_response=False)
    tables = list(graph_tables(data.Z, np.zeros(p), [3, 0], 0.05))
    band = simultaneous_bands(tables, 200, 2)
    nodes = [r for r in records if r["record"] == "node"]
    assert [(r["name"], r["index"]) for r in nodes] == [("z4", 4), ("z1", 1)]
    assert [(r["penalty"], r["radius"], r["iterations"], r["converged"],
             r["kkt_residual"]) for r in nodes] == [
        (t.pilot.penalty, t.pilot.radius, t.pilot.iterations,
         t.pilot.converged, t.pilot.kkt_residual) for t in tables]
    edges = [r for r in records if r["record"] == "edge"]
    assert len(edges) == len(band.targets) == 2 * (p - 1)
    assert [(e["source"], e["source_index"], e["partner"], e["partner_index"],
             e["estimate"], e["sd"], e["band_low"], e["band_high"],
             e["zero_in_band"]) for e in edges] == [
        (names[j], j + 1, names[t], t + 1, est, sd, lo, hi, lo <= 0.0 <= hi)
        for j, t, est, sd, lo, hi in zip(
            np.repeat([3, 0], p - 1), band.targets, band.estimates, band.sds,
            band.lower, band.upper)]


def check_graph_band_is_the_shared_band(tmp_path, capsys, p):
    # every source: the p(p-1) edge cells of the library's graph tables,
    # taken source by source in partner order, get the band est -+ c* sd /
    # sqrt(n) with c* from the one-feed maxima of all their scores, bit for
    # bit
    path, gamma = write_nodes(tmp_path, n=60, p=p, seed=8)
    code, out, _ = run_cli(capsys, "graph", "--input", path, "--gamma", gamma,
                           "--alpha", "0.1", "--boot", "300", "--seed", "5",
                           "--format", "records")
    assert code == 0
    records = parse_records(out)
    edges = [r for r in records if r["record"] == "edge"]
    data, _ = dataio.read_dataset_csv(path, require_response=False)
    cells = [cell for table in graph_tables(data.Z, np.zeros(p), range(p),
                                            0.1) for cell in table.cells]
    c_star = critical_value(multiplier_maxima(
        np.column_stack([c.scores for c in cells]), 300, 5), 0.1)
    est = np.array([c.estimate for c in cells])
    half = c_star * np.array([c.sd for c in cells]) / math.sqrt(60)
    assert len(edges) == p * (p - 1)
    assert records[0]["critical_value"] == c_star
    assert [e["estimate"] for e in edges] == list(est)
    assert [e["band_low"] for e in edges] == list(est - half)
    assert [e["band_high"] for e in edges] == list(est + half)
    assert [(e["source_index"], e["partner_index"]) for e in edges] == [
        (j + 1, k + 1) for j in range(p) for k in range(p) if k != j]


def test_graph_band_is_the_shared_band_over_all_edges(tmp_path, capsys):
    check_graph_band_is_the_shared_band(tmp_path, capsys, p=4)


def test_graph_band_is_the_shared_band_across_column_blocks(tmp_path, capsys):
    # 552 edges stream through the bootstrap in three column blocks, fed
    # 23 columns per source, and still equal the one-feed band
    assert 2 * bootstrap._BLOCK_COLUMNS < 24 * 23
    # and one nodewise stack holds all 552 edge rows of the graph's Gram
    assert nodewise.stack_rows(24) >= 24 * 23
    check_graph_band_is_the_shared_band(tmp_path, capsys, p=24)


def test_graph_stacks_edges_across_sources(tmp_path, capsys, monkeypatch):
    # the 9 pilots of 9 nodes are rows of the graph's one Gram and one
    # stacked solve; the edge regressions that their pilots leave unsolved
    # go, across sources, into one more
    path, gamma = write_nodes(tmp_path, n=80, p=9)
    assert nodewise.stack_rows(9) >= 72
    rows = []
    original = nodewise.fit_corrected_lasso_stack

    def counted(b, *args, **kwargs):
        rows.append(b.shape[0])
        return original(b, *args, **kwargs)
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", counted)
    code, out, _ = run_cli(capsys, "graph", "--input", path, "--gamma", gamma,
                           "--boot", "100", "--format", "records")
    assert code == 0
    assert sum(r["record"] == "edge" for r in parse_records(out)) == 72
    assert rows[0] == 9 and len(rows) == 2 and 0 < rows[1] < 72


def fail_pilot_of(monkeypatch, column):
    # the pilot of `column` returns a NumericalError in its stack
    original = nodewise.fit_corrected_lasso_stack

    def fail_pilot(b, G, cfg, pins=None):
        fits = original(b, G, cfg, pins)
        return [NumericalError("forced pilot failure")
                if tuple(pin) == (column,) else fit
                for pin, fit in zip(pins, fits)]
    monkeypatch.setattr(nodewise, "fit_corrected_lasso_stack", fail_pilot)


def test_graph_pilot_failure_exits_3_with_no_output(tmp_path, capsys,
                                                    monkeypatch):
    # every pilot is solved before the first source's table; source z3's
    # failed pilot surfaces in its turn, and the report is written only
    # after every source, so the command exits 3 with nothing on stdout
    path, gamma = write_nodes(tmp_path, n=80, p=5)
    fail_pilot_of(monkeypatch, 2)
    code, out, err = run_cli(capsys, "graph", "--input", path, "--gamma",
                             gamma, "--boot", "50")
    assert (code, out) == (3, "")
    assert "forced pilot failure" in err


@pytest.mark.parametrize("targets, code", [("z1,z4", 0), ("z1,z3", 3)])
def test_graph_with_targets_fails_only_on_a_source_pilot(
        tmp_path, capsys, monkeypatch, targets, code):
    # z3's pilot fails: with z3 only a partner, its edges are refit and
    # the graph is the one an unpatched run gives up to the solver
    # tolerance; with z3 a source, the command exits 3 with no output
    path, gamma = write_nodes(tmp_path, n=80, p=5)
    argv = ("graph", "--input", path, "--gamma", gamma, "--boot", "50",
            "--targets", targets, "--format", "records")
    unpatched, out, _ = run_cli(capsys, *argv)
    assert unpatched == 0
    want = parse_records(out)
    fail_pilot_of(monkeypatch, 2)
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    if code:
        assert out == "" and "forced pilot failure" in err
        return
    records = parse_records(out)
    assert [r["record"] for r in records] == [r["record"] for r in want]
    for rec, before in zip(records, want):
        if rec["record"] == "edge":
            se = before["sd"] / math.sqrt(80)
            assert abs(rec["estimate"] - before["estimate"]) <= 1e-6 * se
        else:
            assert rec == before


def write_zero_column_nodes(tmp_path, gamma_value):
    # columns a, b, c, d with c all zero; source a's design is [b, c, d], so
    # c is column 1 there but column 2 of the file
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(40, 4))
    Z[:, 2] = 0.0
    path = tmp_path / "zero_c.csv"
    path.write_text("a,b,c,d\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in Z))
    gamma = tmp_path / "zero_c_gamma.txt"
    gamma.write_text(f"{gamma_value!r}\n" * 4)
    return str(path), str(gamma)


@pytest.mark.parametrize("gamma_value, reason", [
    (0.0, "score slope"), (0.1, "plug-in variance is exactly zero")])
def test_graph_degeneracy_names_source_and_partner(tmp_path, capsys,
                                                   gamma_value, reason):
    # gamma 0 makes the slope of edge a -> c vanish; gamma 0.1 keeps the
    # slope but leaves every score of that edge at zero
    path, gamma = write_zero_column_nodes(tmp_path, gamma_value)
    code, out, err = run_cli(capsys, "graph", "--input", path, "--gamma",
                             gamma, "--boot", "50")
    assert (code, out) == (4, "")
    assert reason in err
    assert "for source a, partner c" in err
    assert "column" not in err


def test_graph_degeneracy_at_a_later_source_names_it(tmp_path, capsys):
    # b leans on a, and its noise variance is its whole second moment.
    # Every source other than a regresses b on a, so its edge to b has a
    # slope; source a regresses b on c and d, at mu = 0, and the slope of
    # its edge to b is exactly 0.  Source c goes into the band first, and
    # the error must name a, the source that failed.
    rng = np.random.default_rng(3)
    Z = rng.normal(size=(40, 4))
    Z[:, 1] = 0.7 * Z[:, 0] + 0.7 * Z[:, 1]
    path = tmp_path / "leaning_b.csv"
    path.write_text("a,b,c,d\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in Z))
    gamma = tmp_path / "leaning_b_gamma.txt"
    gamma.write_text(f"0.0\n{float(Z[:, 1] @ Z[:, 1] / 40)!r}\n0.0\n0.0\n")
    argv = ("graph", "--input", str(path), "--gamma", str(gamma),
            "--boot", "50", "--targets")
    assert run_cli(capsys, *argv, "c")[0] == 0
    code, out, err = run_cli(capsys, *argv, "c,a")
    assert (code, out) == (4, "")
    assert err == ("error: score slope 0.000e+00 is numerically zero for "
                   "source a, partner b\n")


def test_zero_variance_names_coordinate(tmp_path):
    # source a's regression of the gamma 0.1 case, run through the library:
    # the zero variance names its column of that design
    path, gamma = write_zero_column_nodes(tmp_path, 0.1)
    data, _ = dataio.read_dataset_csv(path, require_response=False)
    with pytest.raises(DegeneracyError) as exc:
        run_inference(Dataset(y=data.Z[:, 0], Z=data.Z[:, 1:]),
                      NoiseSpec.known(np.full(3, 0.1)), [0, 1, 2])
    assert exc.value.coordinate == 1
    assert str(exc.value) == "plug-in variance is exactly zero for column 1"


def test_graph_null_design_bands_cover_zero(tmp_path, capsys):
    # independent nodes: every conditional association is zero, so with
    # alpha = 0.05 the joint band should cover zero everywhere in well over
    # 90% of replications
    hits = 0
    reps = 20
    for r in range(reps):
        path, gamma = write_nodes(tmp_path, n=120, p=4, seed=100 + r,
                                  name=f"null{r}.csv")
        code, out, _ = run_cli(capsys, "graph", "--input", path, "--gamma",
                               gamma, "--boot", "300", "--format", "records")
        assert code == 0
        edges = [rec for rec in parse_records(out) if rec["record"] == "edge"]
        hits += all(e["zero_in_band"] for e in edges)
    assert hits >= 0.9 * reps


def assert_records_close(got, want):
    # the same record fields and non-float values, and every float equal up
    # to the rounding of a row that shares its solver's matrix product
    # with other rows (1e-10 relative; the largest seen is about 1e-13)
    if isinstance(want, float):
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-14)
    elif isinstance(want, (list, dict)):
        assert type(got) is type(want) and len(got) == len(want)
        if isinstance(want, dict):
            assert got.keys() == want.keys()
            got, want = got.values(), want.values()
        for g, w in zip(got, want):
            assert_records_close(g, w)
    else:
        assert got == want


def test_stacked_nodewise_solves_leave_records_unchanged(tmp_path, capsys,
                                                        monkeypatch):
    # graph (p = 9, so 8-column subproblems) and a multi-target study at
    # p = 24 both stack their nodewise solves by default; with the budget at
    # zero every target is solved alone, and the reports must not change
    # beyond the rounding of the stacks' shared products; a second stacked
    # run gives the same bytes
    path, gamma = write_nodes(tmp_path, n=80, p=9)
    runs = {
        "graph": ("graph", "--input", path, "--gamma", gamma, "--boot", "200",
                  "--seed", "4"),
        "simulate": ("simulate", "--preset", "multi", "--noise-mode", "mar",
                     "--n", "80", "--p", "24", "--replications", "2",
                     "--boot", "100", "--seed", "6", "--lambda-scale", "0.2"),
    }
    assert nodewise.stack_rows(9) >= 72 and nodewise.stack_rows(24) >= 10
    for name, argv in runs.items():
        stacked = str(tmp_path / f"{name}_stacked.ndjson")
        assert run_cli(capsys, *argv, "--format", "records",
                       "--out", stacked)[0] == 0
        again = str(tmp_path / f"{name}_again.ndjson")
        assert run_cli(capsys, *argv, "--format", "records",
                       "--out", again)[0] == 0
        assert filecmp.cmp(stacked, again, shallow=False), name
        with monkeypatch.context() as m:
            m.setattr(nodewise, "STACK_BUDGET_BYTES", 0)
            assert nodewise.stack_rows(9) == nodewise.stack_rows(24) == 1
            alone = str(tmp_path / f"{name}_alone.ndjson")
            assert run_cli(capsys, *argv, "--format", "records",
                           "--out", alone)[0] == 0
        with open(stacked) as a, open(alone) as b:
            assert_records_close(parse_records(a.read()),
                                 parse_records(b.read()))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_records_are_consistent(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "50", "--p", "8",
                           "--replications", "4", "--format", "records")
    assert code == 0
    records = parse_records(out)
    header = records[0]
    assert header["command"] == "simulate"
    assert header["replications"] == 4
    agg = next(r for r in records if r["record"] == "aggregate")
    reps = [r for r in records if r["record"] == "replication"]
    assert len(reps) == 4
    assert agg["rejection_rate"] == np.mean([r["reject"] for r in reps])


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    args = ("simulate", "--n", "50", "--p", "8", "--replications", "3",
            "--seed", "7", "--format", "records")
    a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
    assert run_cli(capsys, *args, "--out", a)[0] == 0
    assert run_cli(capsys, *args, "--out", b)[0] == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_simulate_worker_count_invisible_in_report(tmp_path, capsys):
    base = ("simulate", "--n", "50", "--p", "8", "--replications", "4",
            "--seed", "7", "--format", "records")
    a, b = str(tmp_path / "w1.ndjson"), str(tmp_path / "w2.ndjson")
    assert run_cli(capsys, *base, "--workers", "1", "--out", a)[0] == 0
    assert run_cli(capsys, *base, "--workers", "2", "--out", b)[0] == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_simulate_target_value_with_multi_preset_exit_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--preset", "multi",
                             "--target-value", "3", "--n", "40", "--p", "12",
                             "--replications", "1", "--boot", "50")
    assert (code, out) == (2, "")
    assert "--target-value" in err


def test_simulate_zero_replications_exit_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--replications", "0")
    assert code == 2
    assert "--replications" in err


def test_simulate_dumped_data_reingests_identically(tmp_path, capsys):
    dump = str(tmp_path / "rep0.csv")
    code, _, _ = run_cli(capsys, "simulate", "--n", "60", "--p", "5",
                         "--replications", "1", "--seed", "13", "--sigma-w",
                         "0.5", "--dump-data", dump, "--format", "records")
    assert code == 0
    cfg = simstudy.single_target_study(n=60, p=5, measurement_sd=0.5,
                                       replications=1, seed=13)
    direct = simstudy.generate(cfg, 0)
    back, _ = dataio.read_dataset_csv(dump)
    npt.assert_array_equal(back.y, direct.y)
    npt.assert_array_equal(back.Z, direct.Z)
    # and the file path yields bit-identical inference to the memory path
    gamma = str(tmp_path / "g5.txt")
    with open(gamma, "w") as fh:
        fh.write("0.25\n" * 5)
    code, out, _ = run_cli(capsys, "infer", "--input", dump, "--gamma", gamma,
                           "--targets", "z1", "--format", "records")
    assert code == 0
    rec = next(r for r in parse_records(out) if r["record"] == "target")
    table = run_inference(direct, NoiseSpec.known(np.full(5, 0.25)), [0])
    assert rec["estimate"] == table.cells[0].estimate
    assert rec["sd"] == table.cells[0].sd


def test_simulate_config_file_overrides(tmp_path, capsys):
    cfg_path = str(tmp_path / "study.json")
    with open(cfg_path, "w") as fh:
        json.dump({"replications": 2, "n": 40, "p": 6, "boot_draws": 150,
                   "solver": {"max_iter": 500}}, fh)
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg_path,
                           "--format", "records")
    assert code == 0
    header = parse_records(out)[0]
    # the file beats the preset
    assert header["replications"] == 2
    assert header["n"] == 40
    assert header["max_iter"] == 500
    assert header["boot_draws"] == 150

    # an explicit flag beats the file
    code, out, _ = run_cli(capsys, "simulate", "--config", cfg_path,
                           "--boot", "120", "--format", "records")
    assert code == 0
    assert parse_records(out)[0]["boot_draws"] == 120

    # unset --alpha, --boot, --seed and --variance-at keep the study's values
    code, out, _ = run_cli(capsys, "simulate", "--preset", "multi", "--n",
                           "40", "--p", "12", "--replications", "1",
                           "--format", "records")
    assert code == 0
    header = parse_records(out)[0]
    assert (header["alpha"], header["boot_draws"], header["seed"],
            header["variance_at"]) == (0.05, 500, 0, "debiased")


def test_simulate_config_layout_replaces_preset_layout(tmp_path, capsys):
    # the multi preset's ten targets do not fit p = 5, the file's own do
    cfg_path = str(tmp_path / "study.json")
    with open(cfg_path, "w") as fh:
        json.dump({"n": 40, "p": 5, "replications": 1, "boot_draws": 50,
                   "targets": [1, 2], "null_values": [0, 0]}, fh)
    code, out, _ = run_cli(capsys, "simulate", "--preset", "multi",
                           "--config", cfg_path, "--format", "records")
    assert code == 0
    header = parse_records(out)[0]
    assert (header["p"], header["targets"]) == (5, [1, 2])


@pytest.mark.parametrize("argv, config", [
    pytest.param(("--p", "0"), None, id="p0"),
    pytest.param(("--p", "1"), None, id="p1"),
    pytest.param((), {"p": 0}, id="config-p0"),
])
def test_simulate_too_few_columns_exit_2(tmp_path, capsys, argv, config):
    if config is not None:
        cfg_path = str(tmp_path / "study.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        argv = ("--config", cfg_path)
    code, _, err = run_cli(capsys, "simulate", *argv, "--replications", "1")
    assert code == 2
    assert "need n >= 2 and p >= 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config, named", [
    pytest.param(("--noise-mode", "mar", "--sigma-w", "inf"), None,
                 "measurement_sd", id="mar-sigma-inf"),
    pytest.param(("--noise-mode", "mar", "--sigma-w", "nan"), None,
                 "measurement_sd", id="mar-sigma-nan"),
    pytest.param(("--sigma-w", "inf"), None, "measurement_sd",
                 id="known-sigma-inf"),
    pytest.param(("--target-value", "nan"), None, "target_value",
                 id="target-value-nan"),
    pytest.param((), {"model_sd": math.inf}, "model_sd", id="config-model-sd"),
    pytest.param((), {"measurement_sd": math.nan}, "measurement_sd",
                 id="config-measurement-sd"),
    pytest.param((), {"beta0": [0.0] * 5 + [math.inf]}, "beta0",
                 id="config-beta0"),
    pytest.param((), {"null_values": [math.nan]}, "null_values",
                 id="config-null-values"),
])
def test_simulate_non_finite_setting_exit_2(tmp_path, capsys, argv, config,
                                            named):
    # rejected when the study is built, before any replication runs
    if config is not None:
        cfg_path = str(tmp_path / "study.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        argv = ("--config", cfg_path)
    code, out, err = run_cli(capsys, "simulate", *argv, "--n", "40", "--p",
                             "6", "--replications", "1")
    assert (code, out) == (2, "")
    assert f"{named} must be finite" in err
    assert "Traceback" not in err


def test_simulate_unknown_config_key_exit_2(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        json.dump({"sample_size": 50}, fh)
    code, _, err = run_cli(capsys, "simulate", "--config", cfg_path)
    assert code == 2
    assert "sample_size" in err


@pytest.mark.parametrize("config, named", [
    pytest.param({"solver": {"bogus": 1}}, "bogus", id="solver0-bogus"),
    pytest.param({"solver": 5}, "solver", id="5-solver"),
    # a config field of the wrong type is named by the config's own check
    pytest.param({"solver": {"tol": "x"}},
                 "tol must be a real number (got 'x')", id="tol-str"),
    pytest.param({"alpha": "0.1"}, "alpha must be a real number (got '0.1')",
                 id="alpha-str"),
    # other values of the wrong type fail inside NumPy or a comparison
    pytest.param({"targets": 5}, "invalid value", id="targets-int"),
    # a file target is checked before its 1-based shift, so 2.5 is not
    # column 2; one replication keeps a run that misses this short
    pytest.param({"targets": [2.5], "null_values": [0.0], "replications": 1},
                 "target must be an integer (got 2.5)", id="targets-float"),
    pytest.param({"targets": [True], "null_values": [0.0],
                  "replications": 1},
                 "target must be an integer (got True)", id="targets-bool"),
    pytest.param({"beta0": "x"}, "beta0 entry must be a real number "
                 "(got 'x')", id="beta0-str"),
    pytest.param({"null_values": ["1"]}, "null_values entry must be a real "
                 "number (got '1')", id="null_values-str"),
    pytest.param({"n": "abc"}, "n must be an integer (got 'abc')",
                 id="n-str"),
    # counts and the seed must be integers, the seed an unsigned 64-bit one
    pytest.param({"replications": 2.5}, "replications must be an integer",
                 id="replications-float"),
    pytest.param({"boot_draws": 20.5}, "boot_draws must be an integer",
                 id="boot_draws-float"),
    pytest.param({"seed": 1.5}, "seed must be an integer", id="seed-float"),
    pytest.param({"solver": {"max_iter": 2.5}},
                 "max_iter must be an integer (got 2.5)", id="max_iter-float"),
    pytest.param({"solver": {"max_iter": True}},
                 "max_iter must be an integer (got True)", id="max_iter-bool"),
    # checked when the study is built, not inside replication 0
    pytest.param({"variance_at": "bogus"}, "unknown variance_at 'bogus'",
                 id="variance_at-bogus"),
    pytest.param({"seed": -1}, "unsigned 64-bit", id="seed-negative"),
    pytest.param({"seed": 2 ** 64}, "unsigned 64-bit", id="seed-2to64"),
    # a file's bytes as given: UTF-16, as some editors save JSON
    pytest.param(json.dumps({"n": 50}).encode("utf-16"), "not UTF-8 text",
                 id="utf16-file"),
])
def test_simulate_bad_solver_config_exit_2(tmp_path, capsys, config, named):
    cfg_path = tmp_path / "bad_config.json"
    if isinstance(config, bytes):
        cfg_path.write_bytes(config)
    else:
        cfg_path.write_text(json.dumps(config))
    cfg_path = str(cfg_path)
    code, _, err = run_cli(capsys, "simulate", "--config", cfg_path)
    assert code == 2
    assert cfg_path in err
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    pytest.param(("infer", "--lambda-scale", "inf"), "--lambda-scale",
                 id="infer-lambda-scale"),
    pytest.param(("fit", "--lambda-scale", "inf"), "--lambda-scale",
                 id="fit-lambda-scale"),
    pytest.param(("infer", "--tol", "inf"), "--tol", id="infer-tol"),
    pytest.param(("fit", "--tol", "inf"), "--tol", id="fit-tol"),
    pytest.param(("simulate", "--lambda-scale", "inf"), "--lambda-scale",
                 id="simulate-lambda-scale"),
    pytest.param(("simulate", "--tol", "inf"), "--tol", id="simulate-tol"),
    # simulate --config files; json writes inf as Infinity
    pytest.param({"penalty_scale": float("inf")}, "penalty_scale",
                 id="config-penalty_scale"),
    pytest.param({"penalty": float("inf")}, "penalty", id="config-penalty"),
    pytest.param({"tol": float("inf")}, "tol", id="config-tol"),
])
def test_non_finite_solver_settings_exit_2(tmp_path, capsys, argv, named):
    # an infinite penalty or tolerance would fit nothing and still write
    # NaN or Infinity into the records, which is not JSON
    if isinstance(argv, dict):
        cfg_path = tmp_path / "solver.json"
        cfg_path.write_text(json.dumps({"solver": argv}))
        argv = ("simulate", "--config", str(cfg_path))
    elif argv[0] != "simulate":
        data, gamma = write_regression(tmp_path)
        argv = (*argv, "--input", data, "--gamma", gamma)
    code, out, err = run_cli(capsys, *argv, "--format", "records")
    assert (code, out) == (2, "")
    assert named in err and "finite" in err
    assert "Traceback" not in err


def test_simulate_failed_replication_in_table_and_records(capsys,
                                                          monkeypatch):
    replicate = simstudy._replicate

    def fail_rep_3(cfg, rep):
        if rep == 3:
            raise NumericalError("forced failure")
        return replicate(cfg, rep)

    monkeypatch.setattr(simstudy, "_replicate", fail_rep_3)
    argv = ("simulate", "--n", "40", "--p", "6", "--replications", "20",
            "--seed", "2")
    code, table, _ = run_cli(capsys, *argv, "--format", "table")
    assert code == 0
    lines = table.splitlines()
    head = next(line for line in lines if line.startswith("rep "))
    row = next(line for line in lines if line.startswith("3 "))
    assert row.split() == ["3", "failed", "NumericalError"]
    # the reject and mean_bias cells are blank
    assert row[head.index("reject"):].strip() == ""
    assert "  failures = 1" in lines and "  completed = 19" in lines

    code, out, _ = run_cli(capsys, *argv, "--format", "records")
    assert code == 0
    records = parse_records(out)
    reps = [r for r in records if r["record"] == "replication"]
    assert reps[3] == {"record": "replication", "rep": 3, "failed": True,
                       "error_kind": "NumericalError",
                       "error": "forced failure"}
    agg = next(r for r in records if r["record"] == "aggregate")
    assert (agg["failures"], agg["completed"]) == (1, 19)


def test_simulate_naive_method_flag(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "60", "--p", "6",
                           "--replications", "3", "--method", "naive",
                           "--format", "records")
    assert code == 0
    assert parse_records(out)[0]["method"] == "naive"


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    data, gamma = write_regression(tmp_path)
    done = subprocess.run(
        [sys.executable, "-m", "eivbands.cli", "infer", "--input", data,
         "--gamma", gamma, "--targets", "z1", "--format", "records"],
        capture_output=True, text=True)
    assert done.returncode == 0
    assert parse_records(done.stdout)[0]["command"] == "infer"


def test_lambda_scale_shrinks_support(tmp_path, capsys):
    data, gamma = write_regression(tmp_path, n=60, p=5, seed=8)
    _, out_small, _ = run_cli(capsys, "fit", "--input", data, "--gamma",
                              gamma, "--format", "records")
    _, out_big, _ = run_cli(capsys, "fit", "--input", data, "--gamma", gamma,
                            "--lambda-scale", "6.0", "--format", "records")
    small = [r for r in parse_records(out_small) if r["record"] == "coefficient"]
    big = [r for r in parse_records(out_big) if r["record"] == "coefficient"]
    assert len(big) < len(small)
    header = parse_records(out_big)[0]
    assert header["penalty"] == pytest.approx(
        6.0 * parse_records(out_small)[0]["penalty"])
