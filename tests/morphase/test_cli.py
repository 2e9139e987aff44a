"""Unit tests for the command-line front end."""

import json

import pytest

from repro.cli import main
from repro.io import dump_instance, load_instance
from repro.model import Record
from repro.workloads import cities


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "us.schema").write_text(cities.US_SCHEMA_TEXT)
    (tmp_path / "euro.schema").write_text(cities.EURO_SCHEMA_TEXT)
    (tmp_path / "target.schema").write_text(cities.TARGET_SCHEMA_TEXT)
    (tmp_path / "program.wol").write_text(cities.PROGRAM_TEXT)
    dump_instance(cities.sample_us_instance(), str(tmp_path / "us.json"))
    dump_instance(cities.sample_euro_instance(),
                  str(tmp_path / "euro.json"))
    return tmp_path


def run(workspace, *argv):
    return main([str(a).replace("$W", str(workspace)) for a in argv])


class TestCompile:
    def test_compile_succeeds(self, workspace, capsys):
        code = run(workspace, "compile",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol")
        out = capsys.readouterr().out
        assert code == 0
        assert "transformation T1+T3" in out
        assert "-- output: 4 clauses" in out

    def test_compile_reports_uncovered(self, workspace, capsys):
        (workspace / "partial.wol").write_text("""
            constraint C3: Y = Mk_CountryT(N) <= Y in CountryT,
                                                 N = Y.name;
            transformation T1:
              X in CountryT, X.name = E.name <= E in CountryE;
        """)
        code = run(workspace, "compile",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/partial.wol")
        assert code == 1
        assert "uncovered" in capsys.readouterr().out

    def test_bad_program_reports_error(self, workspace, capsys):
        (workspace / "bad.wol").write_text("this is not WOL;")
        code = run(workspace, "compile",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/bad.wol")
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTransform:
    def test_transform_writes_target(self, workspace, capsys):
        code = run(workspace, "transform",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--out", "$W/out.json", "--audit")
        out = capsys.readouterr().out
        assert code == 0
        assert "CityT=12" in out
        assert "audit: all clauses satisfied" in out
        target = load_instance(str(workspace / "out.json"))
        assert target.class_sizes() == {
            "CityT": 12, "CountryT": 3, "StateT": 2}

    def test_audit_trace_tree(self, workspace, capsys):
        code = run(workspace, "transform",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--out", "$W/out.json", "--audit", "--trace")
        out = capsys.readouterr().out
        assert code == 0
        transform, audit = out.split("· audit")
        assert "· transform" in transform
        assert "plan" in audit and "nested_scans=0" in audit
        assert "execute" in audit and "body_solutions=" in audit
        assert "violations=0" in audit and "clause T2" in audit

    def test_cpl_backend(self, workspace, capsys):
        code = run(workspace, "transform",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--out", "$W/out_cpl.json", "--backend", "cpl")
        assert code == 0
        direct = load_instance(str(workspace / "out_cpl.json"))
        assert direct.class_sizes()["CityT"] == 12

    def test_no_columnar_flag_is_gone(self, workspace, capsys):
        """One production pipeline: the scalar-planned knob was deleted
        (and ``--no-planner`` after it, see below)."""
        with pytest.raises(SystemExit) as info:
            run(workspace, "transform",
                "--source", "$W/us.schema", "--source", "$W/euro.schema",
                "--target", "$W/target.schema", "$W/program.wol",
                "--data", "$W/us.json", "--data", "$W/euro.json",
                "--out", "$W/out.json", "--no-columnar")
        assert info.value.code == 2
        assert "--no-columnar" in capsys.readouterr().err

    def test_no_planner_flag_is_gone(self, workspace, capsys):
        """The naive oracle is ``repro.oracle``, not a CLI mode."""
        with pytest.raises(SystemExit) as info:
            run(workspace, "transform",
                "--source", "$W/us.schema", "--source", "$W/euro.schema",
                "--target", "$W/target.schema", "$W/program.wol",
                "--data", "$W/us.json", "--data", "$W/euro.json",
                "--out", "$W/out.json", "--no-planner")
        assert info.value.code == 2
        assert "--no-planner" in capsys.readouterr().err

    def test_parallel_flag_is_gone(self, workspace, capsys):
        """The parallel sharded engine lost every paired end-to-end
        run against this path and was deleted with its flag."""
        with pytest.raises(SystemExit) as info:
            run(workspace, "transform",
                "--source", "$W/us.schema", "--source", "$W/euro.schema",
                "--target", "$W/target.schema", "$W/program.wol",
                "--data", "$W/us.json", "--data", "$W/euro.json",
                "--out", "$W/out.json", "--parallel", "2")
        assert info.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_check_source_rejects_bad_instance(self, workspace, capsys):
        builder = cities.sample_euro_instance().builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="?", currency="?"))
        dump_instance(builder.freeze(), str(workspace / "bad_euro.json"))
        code = run(workspace, "transform",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/bad_euro.json",
                   "--out", "$W/out.json", "--check-source")
        assert code == 2
        assert "source constraints" in capsys.readouterr().err


class TestCheck:
    def test_satisfied_constraints(self, workspace, capsys):
        (workspace / "constraints.wol").write_text(
            "C4: Y in CityE, Y.country = X, Y.is_capital = true"
            " <= X in CountryE;")
        code = run(workspace, "check",
                   "--source", "$W/euro.schema", "$W/constraints.wol",
                   "--data", "$W/euro.json")
        assert code == 0
        assert "satisfied" in capsys.readouterr().out

    def test_stats_and_no_planner(self, workspace, capsys):
        (workspace / "constraints.wol").write_text(
            "C4: Y in CityE, Y.country = X, Y.is_capital = true"
            " <= X in CountryE;")
        code = run(workspace, "check",
                   "--source", "$W/euro.schema", "$W/constraints.wol",
                   "--data", "$W/euro.json", "--stats")
        out = capsys.readouterr().out
        assert code == 0
        assert "stats:" in out and "planned bodies" in out
        assert "1 planned bodies" in out and "satisfied" in out
        # The audit always plans: the opt-out flag is rejected by name.
        with pytest.raises(SystemExit) as info:
            run(workspace, "check",
                "--source", "$W/euro.schema", "$W/constraints.wol",
                "--data", "$W/euro.json", "--stats", "--no-planner")
        assert info.value.code == 2
        assert "--no-planner" in capsys.readouterr().err

    def test_violations_reported(self, workspace, capsys):
        builder = cities.sample_euro_instance().builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="?", currency="?"))
        dump_instance(builder.freeze(), str(workspace / "bad.json"))
        (workspace / "constraints.wol").write_text(
            "C4: Y in CityE, Y.country = X, Y.is_capital = true"
            " <= X in CountryE;")
        code = run(workspace, "check",
                   "--source", "$W/euro.schema", "$W/constraints.wol",
                   "--data", "$W/bad.json")
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_json_output(self, workspace, capsys):
        (workspace / "constraints.wol").write_text(
            "C4: Y in CityE, Y.country = X, Y.is_capital = true"
            " <= X in CountryE;")
        code = run(workspace, "check",
                   "--source", "$W/euro.schema", "$W/constraints.wol",
                   "--data", "$W/euro.json", "--json")
        out = capsys.readouterr().out
        assert code == 0
        document = json.loads(out)
        assert document["ok"] is True
        assert document["checked"] == 1
        assert document["violations"] == {}
        assert document["stats"]["planned_bodies"] == 1

    def test_json_output_with_violations(self, workspace, capsys):
        builder = cities.sample_euro_instance().builder()
        builder.new("CountryE", Record.of(
            name="Utopia", language="?", currency="?"))
        dump_instance(builder.freeze(), str(workspace / "bad.json"))
        (workspace / "constraints.wol").write_text(
            "C4: Y in CityE, Y.country = X, Y.is_capital = true"
            " <= X in CountryE;")
        code = run(workspace, "check",
                   "--source", "$W/euro.schema", "$W/constraints.wol",
                   "--data", "$W/bad.json", "--json")
        out = capsys.readouterr().out
        assert code == 1
        document = json.loads(out)
        assert document["ok"] is False
        assert any("C4" in name for name in document["violations"])


class TestApplyDelta:
    def delta_file(self, workspace, document, name="delta.json"):
        (workspace / name).write_text(json.dumps(document))
        return name

    def test_apply_delta_writes_updated_target(self, workspace, capsys):
        # Insert a country plus its capital: the target gains both and
        # no source-constraint violation survives.
        self.delta_file(workspace, {
            "inserts": {
                "CountryE": [{
                    "id": {"$oid": "CountryE", "label": "CountryE#new"},
                    "value": {"$rec": {"name": "Utopia",
                                       "language": "utopian",
                                       "currency": "UTO"}}}],
                "CityE": [{
                    "id": {"$oid": "CityE", "label": "CityE#new"},
                    "value": {"$rec": {
                        "name": "Nowhere", "is_capital": True,
                        "country": {"$oid": "CountryE",
                                    "label": "CountryE#new"}}}}],
            }})
        code = run(workspace, "apply-delta",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--delta", "$W/delta.json", "--out", "$W/updated.json",
                   "--stats")
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote" in out and "stats:" in out
        updated = load_instance(str(workspace / "updated.json"))
        assert updated.class_sizes() == {
            "CityT": 13, "CountryT": 4, "StateT": 2}

    def test_apply_delta_reports_violation_diff(self, workspace, capsys):
        # A country without a capital violates C4; the diff says so.
        self.delta_file(workspace, {
            "inserts": {"CountryE": [{
                "id": {"$oid": "CountryE", "label": "CountryE#new"},
                "value": {"$rec": {"name": "Utopia",
                                   "language": "utopian",
                                   "currency": "UTO"}}}]}})
        code = run(workspace, "apply-delta",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--delta", "$W/delta.json", "--out", "$W/updated.json")
        out = capsys.readouterr().out
        assert code == 1
        assert "+1 new" in out

    def test_apply_delta_json_output(self, workspace, capsys):
        self.delta_file(workspace, {
            "inserts": {"CountryE": [{
                "id": {"$oid": "CountryE", "label": "CountryE#new"},
                "value": {"$rec": {"name": "Utopia",
                                   "language": "utopian",
                                   "currency": "UTO"}}}]}})
        code = run(workspace, "apply-delta",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--delta", "$W/delta.json", "--out", "$W/updated.json",
                   "--json")
        out = capsys.readouterr().out
        assert code == 1
        document = json.loads(out)
        assert document["delta"]["inserts"] == 1
        assert document["violations"]["remaining"] == 1
        assert len(document["violations"]["added"]) == 1
        assert document["target"]["classes"]["CountryT"] == 3
        assert "elapsed_ms" in document["stats"]

    def test_incremental_equals_recompute_through_cli(self, workspace,
                                                      capsys):
        # Differential at the CLI level: apply-delta's output equals a
        # fresh transform over the manually-updated source.
        self.delta_file(workspace, {
            "inserts": {
                "CountryE": [{
                    "id": {"$oid": "CountryE", "label": "CountryE#new"},
                    "value": {"$rec": {"name": "Utopia",
                                       "language": "utopian",
                                       "currency": "UTO"}}}],
                "CityE": [{
                    "id": {"$oid": "CityE", "label": "CityE#new"},
                    "value": {"$rec": {
                        "name": "Nowhere", "is_capital": True,
                        "country": {"$oid": "CountryE",
                                    "label": "CountryE#new"}}}}],
            }})
        code = run(workspace, "apply-delta",
                   "--source", "$W/us.schema", "--source", "$W/euro.schema",
                   "--target", "$W/target.schema", "$W/program.wol",
                   "--data", "$W/us.json", "--data", "$W/euro.json",
                   "--delta", "$W/delta.json", "--out", "$W/updated.json")
        assert code == 0
        capsys.readouterr()

        from repro.evolution.delta import load_delta
        from repro.morphase import Morphase
        from repro.semantics.satisfaction import merge_instances
        instances = [cities.sample_us_instance(),
                     cities.sample_euro_instance()]
        merged = merge_instances("__delta__", instances)
        delta = load_delta(str(workspace / "delta.json"), merged)
        morphase = Morphase([cities.us_schema(), cities.euro_schema()],
                            cities.target_schema(), cities.PROGRAM_TEXT)
        oracle = morphase.transform(delta.apply_to(merged)).target
        updated = load_instance(str(workspace / "updated.json"))
        assert updated.class_sizes() == oracle.class_sizes()
