"""The engine registry is the one place engine names are told apart.

``repro.session`` hands every evaluation to the engine object the
registry built; it neither branches on an engine's name nor imports the
SQLite machinery, which lives behind the registry in ``repro.backends``.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.engine.registry import ENGINES

ROOT = Path(repro.__file__).parent
REGISTRY = "engine/registry.py"


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _compares_an_engine_name(node):
    if not isinstance(node, ast.Compare):
        return False
    for operand in (node.left, *node.comparators):
        values = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else (operand,)
        if any(isinstance(value, ast.Constant) and value.value in ENGINES for value in values):
            return True
    return False


def test_engine_names_are_compared_only_in_the_registry():
    comparing = {
        name
        for name, tree in _modules()
        if any(_compares_an_engine_name(node) for node in ast.walk(tree))
    }
    assert comparing <= {REGISTRY}, sorted(comparing - {REGISTRY})


def test_session_imports_neither_sqlite3_nor_the_backends():
    tree = ast.parse((ROOT / "session.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # session.py sits at the package root: ``.x`` is ``repro.x``.
            module = ".".join(filter(None, ("repro" if node.level else "", node.module)))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "sqlite3" not in imported
    assert not {
        name for name in imported if name == "repro.backends" or name.startswith("repro.backends.")
    }


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_registered_engine_answers(name):
    from repro.algebra import parse_ra
    from repro.datamodel import Database, Null

    database = Database.from_dict({"R": [(1, 2), (2, Null("x"))]})
    with repro.connect(database, engine=name) as session:
        assert session._engine.name == name
        assert session.query(parse_ra("project[#0](R)")).certain().rows == {(1,), (2,)}
