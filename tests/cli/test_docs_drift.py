"""Docs cannot drift from argparse: every ``--flag`` the README or the
CLI's own docstring/epilogs mention is one ``build_parser()`` accepts.

Removing a flag without removing its documentation (or documenting one
that was never added) is a tier-1 failure, not a reader's surprise.
The same holds for the lint codes, the ``engine`` metric label values
the README lists, the metric families the service registers and the
HTTP routes it serves.
"""

import argparse
import pathlib
import re

import repro.cli
from repro.analysis.diagnostics import CODES
from repro.cli import build_parser
from repro.service import server

README = pathlib.Path(__file__).resolve().parents[2] / "README.md"
PACKAGE = pathlib.Path(repro.cli.__file__).parent

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
    published = {label for path in PACKAGE.rglob("*.py")
                 for label in re.findall(
                     r"publish_engine_stats\(\s*\"(\w+)\"",
                     path.read_text(encoding="utf-8"))}
    row, = (line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `repro_engine_*_total{engine}`"))
    listed = re.search(r"`engine` is ([^(]+)\(", row).group(1)
    assert published
    assert set(re.findall(r"`(\w+)`", listed)) == published


def registered_families(paths):
    return {family for path in paths
            for family in re.findall(r"\"(repro_\w+)\"",
                                     path.read_text(encoding="utf-8"))}


def metrics_table():
    return "\n".join(
        line for line in README.read_text(encoding="utf-8").splitlines()
        if line.startswith("| `repro_"))


def test_readme_metrics_table_names_every_service_family():
    """Every ``repro_*`` family the service modules register is spelled
    out in the README's metrics table (a new cache lands with its
    counters documented)."""
    registered = registered_families(
        PACKAGE / "service" / name
        for name in ("session.py", "server.py", "replica.py"))
    assert {"repro_target_encode_total", "repro_http_requests_total",
            "repro_session_applied_seq", "repro_replication_lag"} \
        <= registered
    assert sorted(registered - set(re.findall(r"repro_\w+",
                                              metrics_table()))) == []


def test_every_session_family_in_the_readme_table_is_registered():
    """The reverse: a renamed or deleted per-session family cannot
    linger in the table."""
    documented = set(re.findall(
        r"repro_(?:session|replication|commit)_\w+", metrics_table()))
    assert "repro_session_start_time_seconds" in documented
    missing = documented - registered_families(PACKAGE.rglob("*.py"))
    assert sorted(missing) == []


def test_every_family_spelled_out_in_the_readme_table_is_registered():
    """Every ``repro_*`` family the table spells out in full (patterns
    like ``repro_engine_*_total`` aside) is registered somewhere in
    ``src/repro`` — a deleted counter takes its row with it."""
    documented = set(re.findall(r"`(repro_\w+)(?:\{[\w,]*\})?`",
                                metrics_table()))
    assert {"repro_index_build_seconds", "repro_http_in_flight",
            "repro_planner_nested_scans_total"} <= documented
    missing = documented - registered_families(PACKAGE.rglob("*.py"))
    assert sorted(missing) == []


#: ``GET /query``-style route mentions; a path followed by ``/`` (the
#: ``/snapshot/<name>`` pattern) is not a fixed route.
ROUTE = re.compile(r"\b(GET|POST)\s+(/[a-z]+)(?![a-z/])")


def test_routes_match_the_readme_and_the_server_docstring():
    routes = ({("GET", path) for path in server._GET_ROUTES}
              | {("POST", path) for path in server._POST_ROUTES})
    text = README.read_text(encoding="utf-8")
    block = text.split("front end exposes:\n\n```\n", 1)[1]
    block = block.split("```", 1)[0]
    assert set(ROUTE.findall(block)) == routes
    assert set(ROUTE.findall(server.__doc__)) == routes
