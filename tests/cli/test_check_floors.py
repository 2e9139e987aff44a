"""``benchmarks/check_floors.py``: the floor gate and what it skips."""

import importlib.util
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECK_FLOORS = ROOT / "benchmarks" / "check_floors.py"


def run_check(tmp_path, capsys, series):
    spec = importlib.util.spec_from_file_location("check_floors",
                                                  CHECK_FLOORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCH_demo.json").write_text(json.dumps(
        {"benchmark": "demo", "series": series}))
    code = module.check(str(tmp_path))
    return code, capsys.readouterr().out.splitlines()


def test_null_floor_rows_are_listed_not_gated(tmp_path, capsys):
    code, lines = run_check(tmp_path, capsys, [
        {"label": "gated", "speedup": 2.0, "floor": 1.5},
        {"label": "w4", "metric": "execution_speedup", "floor": None,
         "execution_speedup": 0.5, "cores": 1},
        {"label": "informational", "ms": 12.0},
    ])
    assert code == 0
    assert "ok  demo/gated: speedup 2.0 >= 1.5" in lines
    assert ("ungated  demo/w4: floor is null (recorded on cores=1)"
            in lines)
    assert not any("informational" in line for line in lines)
    assert lines[-1] == "1 floor(s) hold, 1 row(s) ungated"


def test_a_dropped_floor_still_fails(tmp_path, capsys):
    code, lines = run_check(tmp_path, capsys, [
        {"label": "gated", "speedup": 1.0, "floor": 1.5}])
    assert code == 1
    assert any("dropped below floor 1.5" in line for line in lines)


def test_every_benchmark_ci_names_exists():
    """A deleted benchmark cannot linger in the CI smoke list, and the
    smoke runs every ``bench_*.py`` by glob, so none is left out."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_*.py" in workflow
    assert len(list((ROOT / "benchmarks").glob("bench_*.py"))) > 5
    named = set(re.findall(r"benchmarks/(?:bench_\w+|e2e/\w+)\.py",
                           workflow))
    assert named
    assert sorted(path for path in named
                  if not (ROOT / path).is_file()) == []


def test_every_floor_file_has_its_benchmark():
    """...nor leave an orphan ``BENCH_<x>.json`` gating nothing."""
    recorded = sorted(ROOT.glob("BENCH_*.json"))
    assert recorded
    assert [path.name for path in recorded
            if not (ROOT / "benchmarks" / (path.stem.replace(
                "BENCH_", "bench_", 1) + ".py")).is_file()] == []
