"""Docs cannot drift from argparse: every ``--flag`` the README or the
CLI's own docstring/epilogs mention is one ``build_parser()`` accepts.

Removing a flag without removing its documentation (or documenting one
that was never added) is a tier-1 failure, not a reader's surprise.
The same holds for the lint codes, the ``engine`` metric label values
the README lists, and the metric families the service registers.
"""

import argparse
import pathlib
import re

import repro.cli
from repro.analysis.diagnostics import CODES
from repro.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"

#: Flags of *other* tools the docs legitimately quote.
FOREIGN_FLAGS = {
    "--cov-fail-under",     # pytest-cov, in the CI/coverage paragraph
}

FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def walk_parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from walk_parsers(sub)


def accepted_flags():
    return {option for parser in walk_parsers(build_parser())
            for action in parser._actions
            for option in action.option_strings if option.startswith("--")}


def documented_flags():
    texts = {"README.md": README.read_text(encoding="utf-8"),
             "repro.cli docstring": repro.cli.__doc__}
    for parser in walk_parsers(build_parser()):
        texts[f"{parser.prog} epilog"] = parser.epilog or ""
    return {(flag, where) for where, text in texts.items()
            for flag in FLAG.findall(text)}


def test_every_documented_flag_is_accepted():
    accepted = accepted_flags() | FOREIGN_FLAGS
    stale = sorted((flag, where) for flag, where in documented_flags()
                   if flag not in accepted)
    assert stale == [], (
        f"documented but not accepted by build_parser(): {stale}")


def test_allowlist_holds_only_foreign_flags_still_quoted():
    documented = {flag for flag, _ in documented_flags()}
    assert FOREIGN_FLAGS <= documented           # no dead allowlist entries
    assert not FOREIGN_FLAGS & accepted_flags()  # and none shadows ours


def test_readme_and_the_code_registry_name_the_same_lint_codes():
    documented = set(re.findall(r"WOL\d{3}",
                                README.read_text(encoding="utf-8")))
    assert documented == set(CODES)


def test_readme_lists_exactly_the_engine_labels_src_publishes():
    """``repro_engine_*_total{engine}``: the values README gives are
    the string literals passed to ``publish_engine_stats(``."""
    package = pathlib.Path(repro.cli.__file__).parent
    published = {label for path in package.rglob("*.py")
                 for label in re.findall(
                     r"publish_engine_stats\(\s*\"(\w+)\"",
                     path.read_text(encoding="utf-8"))}
    row, = (line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `repro_engine_*_total{engine}`"))
    listed = re.search(r"`engine` is ([^(]+)\(", row).group(1)
    assert published
    assert set(re.findall(r"`(\w+)`", listed)) == published


def test_readme_metrics_table_names_every_service_family():
    """Every ``repro_*`` family ``service/session.py`` and
    ``service/server.py`` register is spelled out in the README's
    metrics table (a new cache lands with its counters documented)."""
    service = pathlib.Path(repro.cli.__file__).parent / "service"
    registered = {family for name in ("session.py", "server.py")
                  for family in re.findall(
                      r"\"(repro_\w+)\"",
                      (service / name).read_text(encoding="utf-8"))}
    table = "\n".join(
        line for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `repro_"))
    assert {"repro_target_encode_total", "repro_http_requests_total",
            "repro_session_applied_seq"} <= registered
    assert sorted(registered - set(re.findall(r"repro_\w+", table))) == []
