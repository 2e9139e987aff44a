"""Contract checks for the benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/contract_check.py -q

Named so that a bare ``pytest`` from the repository root does not
collect it: the checks start child servers and take about a minute.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

import layers       # noqa: E402
import shim         # noqa: E402
import workloads    # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_layout(contract):
    assert set(contract) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = ([w["name"] for w in contract["workloads"]]
             + [m["name"] for m in contract["end_to_end"]]
             + [m["name"] for m in contract["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in contract["end_to_end"])
    # the driver's schedule must fit its time limit
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 8) <= 3420


def test_names_match_the_code(contract):
    assert [w["name"] for w in contract["workloads"]] \
        == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"], m["bound"])
                for m in contract["end_to_end"]}
    assert declared == layers.END_TO_END
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} \
        == layers.PER_LAYER_UNITS
    assert {m["name"] for m in contract["per_layer"]
            if m["better"] == "higher"} == layers.HIGHER_IS_BETTER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_exactly_the_declared_metrics(contract, workload,
                                                   trace, tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", "12", "--seconds", "2",
         "--trace", trace, "--out", str(tmp_path / "runs.jsonl")],
        capture_output=True, text=True, cwd=REPO, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} \
        == {m["name"]: m["unit"] for m in contract[section]}
    for entry in last["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if trace == "0":
        assert all(entry["value"] > 0 for entry in last["metrics"].values())


def test_predicted_flat_cells(tmp_path):
    """Write-path layers stay untouched by reads, and the other way
    round; ``store``/``service`` spans never appear in a batch pass."""
    def per_layer(workload):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--workload", workload, "--seed", "11", "--seconds", "2",
             "--trace", "1", "--out", str(tmp_path / "runs.jsonl")],
            capture_output=True, text=True, cwd=REPO, timeout=170)
        assert done.returncode == 0, done.stderr[-2000:]
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        return {name: entry["value"] for name, entry in metrics.items()}

    read = per_layer("serve_read")
    assert read["semantics.match.index_builds_per_read"] == 0
    for name in ("store.wal.append_ms", "semantics.match.rebase_ms",
                 "engine.incremental.transform_apply_ms"):
        assert read[name] == 0
    assert read["query.run_planned_ms"] > 0
    batch = per_layer("batch_rebuild")
    for name, value in batch.items():
        if name.startswith(("store.", "service.", "client.")):
            assert value == 0, name
    assert batch["constraints.audit.violations_ms"] > 0


def test_shim_degrades_when_a_target_is_removed(monkeypatch, capsys):
    """A wrapped name that no longer exists yields a warning and zero
    calls — never a failure."""
    import repro.evolution
    monkeypatch.delattr(repro.evolution, "compose_deltas")
    tracer = shim.Shim()
    tracer.install({
        "evolution.delta.compose":
            shim.TARGETS["evolution.delta.compose"],
        "store.store.vanished":
            ("repro.store", "WarehouseStore.no_such_method", "span"),
        "lang.parse": shim.TARGETS["lang.parse"],
    })
    try:
        assert sorted(tracer.missing) == ["evolution.delta.compose",
                                          "store.store.vanished"]
        assert "is gone" in capsys.readouterr().err
        from repro.lang import parse_program
        with tracer.root("client.test", 0):
            parse_program("", classes=[])
    finally:
        tracer.uninstall()
    metrics = layers.traced(tracer, [(0, "test", "test")], {0: 1.0},
                            {0: 1.0})
    assert metrics["evolution.delta.compose_ms"][0] == 0.0
    assert metrics["lang.parse_ms"][2] == 1      # one call seen
    from repro.lang import parse_program as restored
    assert not hasattr(restored, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark,
    the command exits non-zero and prints no result."""
    import shutil
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "serve_read", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
