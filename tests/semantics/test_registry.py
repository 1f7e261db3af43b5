"""The semantics registry is the one place semantics names are told apart.

``repro.session``, ``repro.core.answers`` and ``repro.serve`` hand every
semantics-dependent decision to the object the registry built, and the
probabilistic tier is compared by name nowhere but the registry.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.algebra import parse_ra
from repro.datamodel import Database, Null
from repro.prob import ProbabilityModel
from repro.semantics.registry import SEMANTICS

ROOT = Path(repro.__file__).parent
REGISTRY = "semantics/registry.py"
DISPATCHERS = ("session.py", "core/answers.py", "serve/")


def _modules():
    for path in sorted(ROOT.rglob("*.py")):
        yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _compared_names(tree):
    """The semantics names a module compares something against."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for operand in (node.left, *node.comparators):
            values = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else (operand,)
            names.update(
                value.value
                for value in values
                if isinstance(value, ast.Constant) and value.value in SEMANTICS
            )
    return names


def test_dispatchers_compare_no_semantics_name():
    comparing = {
        name
        for name, tree in _modules()
        if name.startswith(DISPATCHERS) and _compared_names(tree)
    }
    assert not comparing, sorted(comparing)


def test_prob_is_compared_only_in_the_registry():
    comparing = {name for name, tree in _modules() if "prob" in _compared_names(tree)}
    assert comparing <= {REGISTRY}, sorted(comparing - {REGISTRY})


def test_session_reaches_world_enumeration_only_through_the_registry():
    """``session.py`` neither calls an enumerator nor fingerprints tokens."""
    tree = ast.parse((ROOT / "session.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not sorted(name for name in names if name.startswith("enumerate_"))
    assert "hashlib" not in names


def _connect(name):
    """A session over a two-row R (one null) and S under semantics ``name``."""
    x, y = Null("x"), Null("y")
    database = Database.from_dict({"R": [(1, 2), (2, x)], "S": [(2,), (y,)]})
    model = None
    if name == "prob":
        model = ProbabilityModel(independent={x: {2: 0.5, 3: 0.5}, y: {2: 0.5, 3: 0.5}})
    return repro.connect(database, semantics=name, model=model)


@pytest.mark.parametrize("name", sorted(SEMANTICS))
def test_every_registered_semantics_answers(name):
    with _connect(name) as session:
        assert session._semantics is SEMANTICS[name]
        assert session.query(parse_ra("project[#0](R)")).certain().rows == {(1,), (2,)}


@pytest.mark.parametrize("name", sorted(SEMANTICS))
@pytest.mark.parametrize("text", ["project[#0](R)", "diff(project[#1](R), S)"])
def test_cursor_certain_streams_what_certain_answers(name, text):
    with _connect(name) as session:
        query = session.query(parse_ra(text))
        assert set(query.cursor(certain=True).fetchall()) == set(query.certain().rows)


@pytest.mark.parametrize("name", ["owa", "cwa", "wcwa"])
def test_only_prob_answers_confidence(name):
    with _connect(name) as session:
        query = session.query(parse_ra("project[#0](R)"))
        with pytest.raises(repro.InvalidRequestError, match="probabilistic session"):
            query.confidence()


@pytest.mark.parametrize("samples", [0, -5])
def test_confidence_validates_samples_at_entry(samples):
    with _connect("prob") as session:
        with pytest.raises(repro.InvalidRequestError, match="samples must be >= 1"):
            session.query(parse_ra("project[#0](R)")).confidence(samples=samples)


@pytest.mark.parametrize("mode", ["certain", "boolean"])
def test_session_enumeration_runs_through_the_one_entry(mode, monkeypatch):
    """``certain()`` and ``boolean()`` reach ``enumerate_certain_answers`` once,
    through the module global the end-to-end layer table wraps."""
    import repro.core.answers as answers

    calls = []
    real = answers.enumerate_certain_answers

    def counted(*args, **kwargs):
        calls.append(mode)
        return real(*args, **kwargs)

    monkeypatch.setattr(answers, "enumerate_certain_answers", counted)
    with _connect("cwa") as session:
        query = session.query(parse_ra("diff(project[#1](R), S)"))
        if mode == "certain":
            query.certain(method="enumeration")
        else:
            query.boolean()
    assert calls == [mode]
