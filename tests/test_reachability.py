"""Every function, class and method under ``src/repro`` is run by the
system, or an allowlist entry says why not (AST scan, no clock).

A definition is *reached* when its name is read — an ``ast.Name`` or
``ast.Attribute`` load — somewhere in ``src/repro``, ``benchmarks`` or
``examples``, outside its own body, from module-level code or from the
body of a reached definition.  So the rule is transitive: code read
only from unreached code is unreached too, and a method is reached only
when its class is.  Imports in ``__init__.py`` and ``__all__`` entries
are re-exports, not reads, and keep nothing alive; a name imported
under an alias is read when the alias is.

Dunders, the stdlib hooks in ``OVERRIDES`` and the console scripts of
``pyproject.toml`` are reached by definition.  Everything else that no
production code reads is either deleted or listed in ``ALLOWLIST`` with
a one-line reason.  The allowlist may only shrink: an entry that is no
longer defined, or that production now reaches without it, fails.

The match is by name, not by binding, so a method shares its fate with
every other definition of the same name; the scan under-reports, never
over-reports.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
READERS = ("src/repro", "benchmarks", "examples")

# Called by the stdlib, never by name.
OVERRIDES = frozenset({"do_GET", "do_POST", "log_message", "handle_error"})

ALLOWLIST = {
    # references that tests compare production against
    "repro.model.instance:Instance.is_valid":
        "well-formedness verdict the differential helpers assert per step",
    "repro.evolution.delta:delta_between":
        "the oracle tests' differ: the delta between two instances",
    "repro.evolution.delta:Delta.invert":
        "undo of a delta, checked against delta_between in the oracle tests",
    "repro.normalization.snf:is_snf_clause":
        "the SNF structure property the normaliser's output is checked for",
    # paper artefacts that tests use as data
    "repro.workloads.cities:integration_program":
        "the paper's Figure 3 program, run by the integration tests",
    "repro.workloads.persons:evolution_program":
        "the paper's (T6)-(T8), (C9)-(C11) evolution program",
    "repro.constraints.library:functional_dependency":
        "a constraint class of the paper (Sections 2-3) as a WOL clause",
    "repro.constraints.library:existence_dependency":
        "a constraint class of the paper (Sections 2-3) as a WOL clause",
    "repro.constraints.library:at_most_one":
        "a constraint class of the paper (Sections 2-3) as a WOL clause",
    "repro.constraints.library:specialization":
        "a constraint class of the paper (Sections 2-3) as a WOL clause",
    "repro.constraints.library:attribute_value":
        "a constraint class of the paper (Sections 2-3) as a WOL clause",
    "repro.constraints.library:inverse_attributes":
        "a constraint class of the paper (Sections 2-3) as a WOL clause",
    # helpers whose deletion would only move them into tests
    "repro.model.types:set_of":
        "the set type constructor seventeen test files build schemas with",
    "repro.lang.parser:parse_term":
        "parses one term; the parser's unit and property tests drive it",
    "repro.lang.parser:parse_atom":
        "parses one atom; the parser's unit and property tests drive it",
    # e2e shim targets keep their names until a ruler change
    "repro.service.session:WarehouseSession.target_json":
        "e2e shim target; the reference target_json_bytes is tested against",
}


class _Definition:
    __slots__ = ("key", "name", "parent", "enclosing")

    def __init__(self, key, name, parent):
        self.key = key
        self.name = name
        self.parent = parent
        # this definition and every one it is nested in
        self.enclosing = {key} | (parent.enclosing if parent else set())


def _module_name(path, root):
    parts = list(path.relative_to(root / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


class _Reads(ast.NodeVisitor):
    """Collects the definitions of one module and the names it reads,
    each read with the innermost definition whose body holds it."""

    def __init__(self, module, definitions, reads):
        self.module = module
        self.definitions = definitions     # None: not under src/repro
        self.reads = reads                 # name -> [owner or None]
        self.owner = None
        self.classes = set()               # keys of the classes defined
        self.aliases = {}                  # asname -> imported name

    def _define(self, node):
        if self.definitions is None or not (
                self.owner is None or self.owner.key in self.classes):
            return None
        qualname = (f"{self.owner.key.split(':')[1]}.{node.name}"
                    if self.owner else node.name)
        definition = _Definition(f"{self.module}:{qualname}", node.name,
                                 self.owner)
        self.definitions.append(definition)
        return definition

    def _visit_definition(self, node):
        definition = self._define(node)
        outer = self.owner
        for child in [*node.decorator_list,
                      *getattr(node, "bases", []),
                      *getattr(node, "keywords", [])]:
            self.visit(child)
        if definition is not None:
            self.owner = definition
            if isinstance(node, ast.ClassDef):
                self.classes.add(definition.key)
        if not isinstance(node, ast.ClassDef):
            self.visit(node.args)
            if node.returns is not None:
                self.visit(node.returns)
        for child in node.body:
            self.visit(child)
        self.owner = outer

    visit_FunctionDef = visit_AsyncFunctionDef = _visit_definition
    visit_ClassDef = _visit_definition

    def _read(self, name):
        self.reads.setdefault(name, []).append(self.owner)
        if name in self.aliases:
            self.reads.setdefault(self.aliases[name], []).append(self.owner)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.attr)
        self.visit(node.value)

    def visit_ImportFrom(self, node):
        for alias in node.names:
            if alias.asname and alias.asname != alias.name:
                self.aliases[alias.asname] = alias.name


def _entry_points(root):
    """``module:function`` of every ``[project.scripts]`` entry (read
    line by line: ``tomllib`` is 3.11+, and CI runs 3.10)."""
    entries, in_scripts = set(), False
    for line in (root / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            in_scripts = line == "[project.scripts]"
        elif in_scripts and "=" in line:
            entries.add(line.split("=", 1)[1].strip().strip("\"'"))
    return entries


def _reached(definitions, reads, roots):
    reached = set()
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition.key in reached or (
                    definition.parent is not None
                    and definition.parent.key not in reached):
                continue
            if definition.key in roots or any(
                    owner is None or (
                        owner.key in reached
                        and definition.key not in owner.enclosing)
                    for owner in reads.get(definition.name, ())):
                reached.add(definition.key)
                changed = True
    return reached


def scan(root, allowlist):
    """``(unreached, stale)`` for the tree at ``root``.

    ``unreached`` lists every definition under ``src/repro`` that is not
    reached and whose parent is (a dead class is reported, not each of
    its methods); ``stale`` lists every allowlist entry that is not
    defined, or that is reached without its entry.
    """
    root = pathlib.Path(root)
    definitions, reads = [], {}
    for reader in READERS:
        for path in sorted((root / reader).rglob("*.py")):
            under_src = reader == "src/repro"
            visitor = _Reads(_module_name(path, root) if under_src else None,
                             definitions if under_src else None, reads)
            visitor.visit(ast.parse(path.read_text(), str(path)))
    entry_points = _entry_points(root)
    exempt = {definition.key for definition in definitions
              if (definition.name.startswith("__")
                  and definition.name.endswith("__"))
              or definition.name in OVERRIDES
              or definition.key in entry_points}
    reached = _reached(definitions, reads, exempt | set(allowlist))
    unreached = sorted(
        definition.key for definition in definitions
        if definition.key not in reached
        and (definition.parent is None
             or definition.parent.key in reached))
    defined = {definition.key for definition in definitions}
    stale = sorted(
        key for key in allowlist
        if key not in defined or key in _reached(
            definitions, reads, exempt | (set(allowlist) - {key})))
    return unreached, stale


def test_every_definition_is_reached_or_allowlisted():
    unreached, stale = scan(ROOT, ALLOWLIST)
    assert unreached == [], (
        "defined under src/repro but read only by tests or by nothing; "
        "delete it, or allowlist it with a reason")
    assert stale == [], "allowlist entries to remove"


def test_every_allowlist_entry_has_a_reason():
    assert all(isinstance(reason, str) and reason.strip()
               and "\n" not in reason for reason in ALLOWLIST.values())


def _tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


#: A tree with one instance of every rule the scan applies.
SYNTHETIC = {
    "pyproject.toml": '[project.scripts]\ntool = "repro.cli:main"\n',
    "src/repro/__init__.py":
        "from .mod import reexported\n__all__ = ['reexported']\n",
    "src/repro/cli.py": "def main():\n    return 0\n",
    "src/repro/mod.py": (
        "from http.server import BaseHTTPRequestHandler\n"
        "def used():\n    return helper()\n"
        "def helper():\n    return 1\n"
        "def reexported():\n    return 2\n"
        "def test_only():\n    return 3\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def dead():\n    return dead_helper()\n"
        "def dead_helper():\n    return 4\n"
        "def aliased():\n    return 5\n"
        "class Handler(BaseHTTPRequestHandler):\n"
        "    def __init__(self):\n        pass\n"
        "    def do_GET(self):\n        pass\n"
        "    def unused(self):\n        pass\n"
        "class Dead:\n"
        "    def __init__(self):\n        pass\n"
        "    def method(self):\n        pass\n"),
    "src/repro/other.py":
        "from .mod import aliased as renamed\nVALUE = renamed()\n",
    "benchmarks/run.py":
        "from repro.mod import Handler, used\nHandler()\nused()\n",
    "examples/demo.py": "import repro\nprint(repro.__name__)\n",
    "tests/test_mod.py": (
        "from repro import reexported\n"
        "from repro.mod import Dead, test_only\n"
        "def test():\n"
        "    assert test_only() == 3 and reexported() and Dead()\n"),
}


def _synthetic_scan(tmp_path, allowlist=None):
    return scan(_tree(tmp_path, SYNTHETIC), allowlist or {})


def test_the_scan_reports_exactly_the_unreached_definitions(tmp_path):
    unreached, stale = _synthetic_scan(tmp_path)
    assert unreached == [
        "repro.mod:Dead", "repro.mod:Handler.unused", "repro.mod:dead",
        "repro.mod:dead_helper", "repro.mod:recursive",
        "repro.mod:reexported", "repro.mod:test_only"]
    assert stale == []


def test_a_helper_read_only_from_tests_is_reported(tmp_path):
    unreached, _ = _synthetic_scan(tmp_path)
    assert "repro.mod:test_only" in unreached


def test_a_name_read_only_through_a_reexport_is_reported(tmp_path):
    unreached, _ = _synthetic_scan(tmp_path)
    assert "repro.mod:reexported" in unreached


def test_dunders_overrides_and_console_scripts_are_not_reported(tmp_path):
    unreached, _ = _synthetic_scan(tmp_path)
    for key in ("repro.mod:Handler.__init__", "repro.mod:Handler.do_GET",
                "repro.cli:main"):
        assert key not in unreached


def test_code_read_only_from_unreached_code_is_reported(tmp_path):
    unreached, _ = _synthetic_scan(tmp_path)
    # dead_helper is read, but only from dead; recursive only by itself
    assert {"repro.mod:dead_helper", "repro.mod:recursive"} <= set(
        unreached)
    # helper is read from used, which a benchmark reads
    assert "repro.mod:helper" not in unreached


def test_a_name_imported_under_an_alias_is_read_through_it(tmp_path):
    unreached, _ = _synthetic_scan(tmp_path)
    assert "repro.mod:aliased" not in unreached


def test_a_dead_class_is_reported_once_not_per_method(tmp_path):
    unreached, _ = _synthetic_scan(tmp_path)
    assert "repro.mod:Dead" in unreached
    assert not any(key.startswith("repro.mod:Dead.") for key in unreached)
    # a live class still has its unread methods reported
    assert "repro.mod:Handler.unused" in unreached


def test_an_allowlist_entry_keeps_the_definition_and_its_reads(tmp_path):
    unreached, stale = _synthetic_scan(tmp_path, {
        "repro.mod:test_only": "kept on purpose",
        "repro.mod:dead": "kept on purpose"})
    assert unreached == ["repro.mod:Dead", "repro.mod:Handler.unused",
                         "repro.mod:recursive", "repro.mod:reexported"]
    assert stale == []


def test_a_stale_allowlist_entry_fails(tmp_path):
    _, stale = _synthetic_scan(tmp_path, {
        "repro.mod:test_only": "kept on purpose",
        "repro.mod:helper": "read by used(), so stale",
        "repro.mod:gone": "no longer defined, so stale"})
    assert stale == ["repro.mod:gone", "repro.mod:helper"]
