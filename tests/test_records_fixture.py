"""The deviation gates of `scripts/records_fixture.py --compare`."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "records_fixture.py"


@pytest.fixture(scope="module")
def fixture_script():
    spec = importlib.util.spec_from_file_location("records_fixture", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_graph(root: Path, kkt: float, radius: float) -> Path:
    root.mkdir()
    records = [
        {"command": "graph", "n": 100, "p": 12, "record": "run"},
        {"converged": True, "index": 1, "iterations": 38,
         "kkt_residual": kkt, "name": "z1", "radius": radius,
         "record": "node"},
    ]
    (root / "graph.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return root


def compare(fixture_script, tmp_path, capsys, old, new):
    before = write_graph(tmp_path / "before", *old)
    after = write_graph(tmp_path / "after", *new)
    code = fixture_script.compare(before, after)
    return code, capsys.readouterr().out


def test_rounding_of_a_kkt_residual_passes(fixture_script, tmp_path, capsys):
    # 1.5e-6 relative on a residual near 1e-9 is rounding, 1.3e-15 absolute
    kkt = 8.9e-10
    code, out = compare(fixture_script, tmp_path, capsys,
                        (kkt, 1.5), (kkt * (1 + 1.5e-6), 1.5))
    assert code == 0
    assert "kkt_residual" in out and " abs" in out
    assert "OVER TOLERANCE" not in out


def test_kkt_residual_beyond_1e_12_absolute_fails(fixture_script, tmp_path,
                                                  capsys):
    kkt = 8.9e-10
    code, out = compare(fixture_script, tmp_path, capsys,
                        (kkt, 1.5), (kkt + 2e-12, 1.5))
    assert code == 1
    assert "OVER TOLERANCE" in out


def test_other_fields_stay_relative(fixture_script, tmp_path, capsys):
    code, out = compare(fixture_script, tmp_path, capsys,
                        (1e-9, 1.5), (1e-9, 1.5 * (1 + 1e-8)))
    assert code == 1
    assert "radius" in out and " rel" in out and "OVER TOLERANCE" in out


def test_identical_trees_pass_silently(fixture_script, tmp_path, capsys):
    code, out = compare(fixture_script, tmp_path, capsys,
                        (1e-9, 1.5), (1e-9, 1.5))
    assert (code, out) == (0, "")
