"""The engine registry is the one place engine names are told apart.

``repro.session`` hands every evaluation to the engine object the
registry built; it neither branches on an engine's name nor imports the
SQLite machinery, which lives behind the registry in ``repro.backends``.
Inside ``repro.backends``, query rows are read only by
``SQLiteBackend.read``, which holds the handle's lock.
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


#: Calls that drain an iterable they are handed.
_DRAINING_CALLS = {"list", "tuple", "set", "frozenset", "sorted", "next", "iter", "decode_rows"}


def _is_cursor(node):
    """A cursor: a name or attribute ``...cursor``, ``connection.cursor()``,
    or the cursor an ``execute``/``executemany`` call returns."""
    if isinstance(node, ast.Name):
        return node.id.endswith("cursor")
    if isinstance(node, ast.Attribute):
        return node.attr.endswith("cursor")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in ("cursor", "execute", "executemany")
    return False


def _reads_rows(function):
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and node.attr in ("fetchall", "fetchmany", "fetchone"):
            return True
        if isinstance(node, (ast.For, ast.comprehension)) and _is_cursor(node.iter):
            return True
        if isinstance(node, ast.YieldFrom) and _is_cursor(node.value):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _DRAINING_CALLS and any(_is_cursor(arg) for arg in node.args):
                return True
    return False


def test_query_rows_are_read_only_under_the_handle_lock():
    reading = set()
    for name, tree in _modules():
        if not name.startswith("backends/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                scope = node.name + "."
                functions = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            elif isinstance(node, ast.Module):
                scope = ""
                functions = [item for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            reading.update(f"{name}:{scope}{f.name}" for f in functions if _reads_rows(f))
    assert reading == {"backends/sqlite.py:SQLiteBackend.read"}, sorted(reading)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_registered_engine_answers(name):
    from repro.algebra import parse_ra
    from repro.datamodel import Database, Null

    database = Database.from_dict({"R": [(1, 2), (2, Null("x"))]})
    with repro.connect(database, engine=name) as session:
        assert session._engine.name == name
        assert session.query(parse_ra("project[#0](R)")).certain().rows == {(1,), (2,)}
