"""The semantics registry is the one place semantics names are told apart.

Every module hands each semantics-dependent decision to the row the
registry built: no module but ``repro/semantics/registry.py`` compares a
semantics name or keys a dict by one, and every library entry taking a
``semantics=`` name resolves it there, so all of them accept exactly the
registered names.
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


def _keyed_names(tree):
    """The semantics names a module keys a dict literal (or ``dict(...)``) by."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = [key.value for key in node.keys if isinstance(key, ast.Constant)]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            keys = [keyword.arg for keyword in node.keywords]
        else:
            continue
        names.update(key for key in keys if key in SEMANTICS)
    return names


def test_only_the_registry_tells_semantics_names_apart():
    telling = {
        name
        for name, tree in _modules()
        if name != REGISTRY and (_compared_names(tree) or _keyed_names(tree))
    }
    assert not telling, sorted(telling)
    registry = ast.parse((ROOT / REGISTRY).read_text(encoding="utf-8"))
    assert _keyed_names(registry) == set(SEMANTICS)


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


# ---------------------------------------------------------------------------
# Every ``semantics=`` entry resolves its name through the registry.
# ---------------------------------------------------------------------------
def _entries():
    """Each library entry taking ``semantics=``, as ``call(name)``."""
    from repro.core import (
        certain_knowledge_formula,
        certain_strategy,
        enumeration_strategy,
        explain_method,
        is_monotone_on,
        knowledge_strategy,
        naive_evaluation_applies,
        relation_leq,
        relational_domain,
    )
    from repro.core.naive_evaluation import evaluate_query
    from repro.exchange import certain_answers_exchange, order_preferences_mapping
    from repro.graphs import (
        ConjunctiveRPQ,
        EdgeAtom,
        GraphPattern,
        IncompleteGraph,
        PathAtom,
        certain_answers_crpq,
        certain_answers_pattern,
        certain_answers_rpq,
        parse_rpq,
    )
    from repro.logic import var
    from repro.semantics import (
        answer_space,
        enumerate_certain_answers,
        enumerate_certain_boolean,
        enumerate_possible_answers,
        enumerate_possible_boolean,
    )

    database = Database.from_dict({"R": [(1, 2), (2, Null("x"))]})
    query = parse_ra("project[#0](R)")
    graph = IncompleteGraph(edges=[("a", "r", Null("x"))])
    x, y = var("x"), var("y")
    mapping = order_preferences_mapping()
    source = Database(mapping.source_schema, {"Order": [("oid1", "pr1")]})
    answer = query.evaluate(database)
    return {
        "enumerate_certain_answers": lambda s: enumerate_certain_answers(query.evaluate, database, s),
        "enumerate_possible_answers": lambda s: enumerate_possible_answers(query.evaluate, database, s),
        "enumerate_certain_boolean": lambda s: enumerate_certain_boolean(query.evaluate, database, s),
        "enumerate_possible_boolean": lambda s: enumerate_possible_boolean(query.evaluate, database, s),
        "answer_space": lambda s: answer_space(query.evaluate, database, s),
        "certain_answers_rpq": lambda s: certain_answers_rpq(parse_rpq("r"), graph, s),
        "certain_answers_crpq": lambda s: certain_answers_crpq(
            ConjunctiveRPQ([PathAtom(x, "r", y)], output=(x, y)), graph, s
        ),
        "certain_answers_pattern": lambda s: certain_answers_pattern(
            GraphPattern([EdgeAtom(x, "r", y)], output=(x, y)), graph, s
        ),
        "knowledge_strategy": lambda s: knowledge_strategy(query, database, evaluate_query, s),
        "relation_leq": lambda s: relation_leq(answer, answer, s),
        "is_monotone_on": lambda s: is_monotone_on(query, [(database, database)], s),
        "naive_evaluation_applies": lambda s: naive_evaluation_applies(query, s),
        "relational_domain": lambda s: relational_domain(s),
        "certain_knowledge_formula": lambda s: certain_knowledge_formula(database, s),
        "certain_answers_exchange": lambda s: certain_answers_exchange(
            mapping, source, parse_ra("project[product](Pref)"), semantics=s
        ),
        "certain_strategy": lambda s: certain_strategy(query, database, evaluate_query, s),
        "enumeration_strategy": lambda s: enumeration_strategy(query, database, evaluate_query, s),
        "explain_method": lambda s: explain_method(query, s),
    }


ENTRIES = sorted(_entries())


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_semantics_entry_takes_exactly_the_registered_names(entry):
    call = _entries()[entry]
    for name in SEMANTICS:
        call(name)
    with pytest.raises(repro.InvalidRequestError, match="unknown semantics 'bogus'"):
        call("bogus")


# ---------------------------------------------------------------------------
# World-space options are checked before the first world.
# ---------------------------------------------------------------------------
BAD_WORLD_OPTIONS = [
    {"max_extra_facts": -1},
    {"max_extra_facts": 1.5},
    {"extra_constants": -1},
    {"extra_constants": "2"},
]


@pytest.mark.parametrize("options", BAD_WORLD_OPTIONS, ids=str)
@pytest.mark.parametrize("mode", ["certain", "possible", "boolean"])
@pytest.mark.parametrize("name", sorted(SEMANTICS))
def test_sessions_refuse_bad_world_options(name, mode, options):
    with _connect(name) as session:
        query = session.query(parse_ra("project[#0](R)"))
        with pytest.raises(repro.InvalidRequestError, match="must be an int >= 0"):
            getattr(query, mode)(**options)
        assert session.metrics()["counters"].get("worlds.evaluated", 0) == 0
        # max_extra_facts=-1 used to enumerate no world and answer {}.
        assert query.certain(method="enumeration", max_extra_facts=0).rows == {(1,), (2,)}


@pytest.mark.parametrize("options", BAD_WORLD_OPTIONS, ids=str)
@pytest.mark.parametrize("name", sorted(SEMANTICS))
def test_enumeration_refuses_bad_world_options_before_any_world(name, options):
    from repro.semantics import enumerate_certain_answers

    evaluated = []

    def evaluate(world):
        evaluated.append(world)
        return parse_ra("project[#0](R)").evaluate(world)

    database = Database.from_dict({"R": [(1, 2), (2, Null("x"))]})
    with pytest.raises(repro.InvalidRequestError, match="must be an int >= 0"):
        enumerate_certain_answers(evaluate, database, name, **options)
    assert evaluated == []
