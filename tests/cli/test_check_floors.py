"""``benchmarks/check_floors.py``: the floor gate and what it skips."""

import importlib.util
import json
import pathlib

CHECK_FLOORS = (pathlib.Path(__file__).resolve().parents[2]
                / "benchmarks" / "check_floors.py")


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
