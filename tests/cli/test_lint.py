"""``repro lint``: exit codes and golden-pinned output shapes.

The text rendering and the ``--json`` document are consumed by CI
gates and editors, so both are pinned byte-for-byte (the program path
is scrubbed to a placeholder).  Regenerate after intentional changes
with ``UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/cli``.
"""

import json

import pytest

from repro.cli import main

from .test_golden import compare_to_golden, scrub_text

SRC_TEXT = ("schema S { class Item = (name: str, a: str, b: str) "
            "key name; }")
TGT_TEXT = "schema T { class Out = (name: str, v: str) key name; }"

CLEAN_PROGRAM = """
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation P0: X in Out, X.name = N, X.v = N
  <= I in Item, N = I.name;
"""

#: One error (WOL401), one warning (WOL301 pair), one info (WOL204),
#: plus a second WOL204 suppressed for clause F only — exercises every
#: severity, clause scoping and the suppression counter in one report.
NOISY_PROGRAM = """
-- lint: disable=WOL204 clause=F
constraint KOut: X = Mk_Out(N) <= X in Out, N = X.name;
transformation P0: X in Out, X.name = N <= I in Item, N = I.name;
transformation W1: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.a;
transformation W2: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.b, U = I.a;
transformation K: Y in Out, Y.v = V <= I in Item, V = I.a;
transformation F: X in Out, X.name = N, X.v = N
  <= N = "fixed", M = "spare";
"""


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "src.schema").write_text(SRC_TEXT)
    (tmp_path / "tgt.schema").write_text(TGT_TEXT)
    (tmp_path / "clean.wol").write_text(CLEAN_PROGRAM)
    (tmp_path / "noisy.wol").write_text(NOISY_PROGRAM)
    return tmp_path


def lint(workspace, program, *extra):
    return main(["lint",
                 "--source", str(workspace / "src.schema"),
                 "--target", str(workspace / "tgt.schema"),
                 str(workspace / program), *extra])


class TestExitCodes:
    def test_clean_program_exits_zero(self, workspace, capsys):
        assert lint(workspace, "clean.wol") == 0
        assert "clean" in capsys.readouterr().out

    def test_errors_fail_by_default(self, workspace):
        assert lint(workspace, "noisy.wol") == 1

    def test_fail_on_warning_tightens_the_gate(self, workspace):
        (workspace / "warn.wol").write_text(
            CLEAN_PROGRAM + """
transformation W1: X.v = V <= X in Out, I in Item,
  X.name = I.name, V = I.a;
""")
        assert lint(workspace, "warn.wol") == 0
        assert lint(workspace, "warn.wol", "--fail-on", "warning") == 1

    def test_fail_on_info_flags_anything(self, workspace, capsys):
        (workspace / "info.wol").write_text(
            CLEAN_PROGRAM.replace(
                "<= I in Item, N = I.name;",
                "<= I in Item, N = I.name, A = I.a;"))
        assert lint(workspace, "info.wol") == 0
        assert lint(workspace, "info.wol", "--fail-on", "info") == 1

    def test_missing_schema_is_a_cli_error(self, workspace):
        assert main(["lint", "--source", str(workspace / "absent.schema"),
                     str(workspace / "clean.wol")]) == 2

    def test_parse_error_reports_wol100(self, workspace, capsys):
        (workspace / "broken.wol").write_text("not wol {{{")
        assert lint(workspace, "broken.wol") == 1
        assert "WOL100" in capsys.readouterr().out


class TestLintGoldens:
    def test_text_output(self, workspace, capsys):
        code = lint(workspace, "noisy.wol")
        out = capsys.readouterr().out
        assert code == 1
        rendered = scrub_text(
            out, {str(workspace / "noisy.wol"): "<program>"})
        compare_to_golden("lint_noisy.txt", rendered)

    def test_json_output(self, workspace, capsys):
        code = lint(workspace, "noisy.wol", "--json")
        out = capsys.readouterr().out
        assert code == 1
        document = json.loads(out)
        assert document["ok"] is False and document["suppressed"] == 1
        rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
        compare_to_golden("lint_noisy.json", rendered)

    def test_clean_json_output(self, workspace, capsys):
        code = lint(workspace, "clean.wol", "--json")
        out = capsys.readouterr().out
        assert code == 0
        rendered = json.dumps(json.loads(out), indent=2,
                              sort_keys=True) + "\n"
        compare_to_golden("lint_clean.json", rendered)
