"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "misrecon").glob("*.py"))


def test_sources_found():
    assert SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so invariants must raise InternalError.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    # A deletion must not leave a dead import behind; ``__init__`` re-exports.
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert not unused, f"{path.name} imports unused names {[(n, imported[n]) for n in unused]}"


def names_in(path):
    """Every variable, attribute and imported name the module mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "sim.py"], ids=lambda p: p.name)
def test_only_sim_names_dist_mis(path):
    # Pipelines run every MIS through a ``sim.Trace``, which charges the run
    # to a phase; a direct ``dist_mis`` call would go uncharged.
    assert "dist_mis" not in names_in(path), f"{path.name} names dist_mis"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "graph.py"], ids=lambda p: p.name)
def test_only_graph_names_the_adjacency_map(path):
    # ``Graph._from_adj`` trusts its map unchecked; only graph.py builds or
    # reads one, so every other module holds graphs that passed the checks.
    private = names_in(path) & {"_adj", "_nodes", "_hash", "_from_adj"}
    assert not private, f"{path.name} names {sorted(private)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_lru_cache_has_an_integer_maxsize(path):
    # The caches are keyed on graphs; one without a bound would keep every
    # graph a long-running caller has seen.
    tree = ast.parse(path.read_text(), filename=str(path))
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = next((k.value for k in node.keywords if k.arg == "maxsize"), node.args[0] if node.args else None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
    named = [node for node in ast.walk(tree) if "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None))]
    lines = [node.lineno for node in named if id(node) not in bounded]
    assert not lines, f"{path.name} has an lru_cache without an integer maxsize on lines {lines}"


def test_sim_calls_dist_mis_only_in_trace_mis():
    # Inside sim.py too, every engine MIS is charged by one formula.
    path = next(p for p in SOURCES if p.name == "sim.py")
    callers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "dist_mis":
                callers.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), [])
    assert callers == ["Trace.mis"]
