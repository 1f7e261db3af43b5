"""Public-API snapshot: the exported surface, and the names removed in 2.0.

Two invariants this file pins down:

* the top-level package exports exactly the session-centric surface
  (additions are deliberate: update the snapshot here *and* docs/api.md);
* the pre-session entry points and the process-global evaluation state
  they ran on are gone, not merely deprecated (docs/api.md, "Removed in
  2.0", maps each to its replacement).
"""

import importlib
import inspect
import pathlib
import re

import pytest

import repro


EXPECTED_TOP_LEVEL = {
    "AnalyzeReport",
    "BackendRecoveryWarning",
    "BackendUnavailable",
    "Budget",
    "BudgetExceeded",
    "ConditionalTable",
    "ConfidenceInterval",
    "ConstantPool",
    "Cursor",
    "Database",
    "ExclusiveBlock",
    "DatabaseSchema",
    "InvalidRequestError",
    "ManualClock",
    "MetricsRegistry",
    "Null",
    "PartialResult",
    "ProbabilityModel",
    "PoolExhausted",
    "Query",
    "QueryCancelled",
    "Relation",
    "RelationSchema",
    "ReproError",
    "ResumeToken",
    "RetryPolicy",
    "Session",
    "SessionClosedError",
    "Tracer",
    "Valuation",
    "__version__",
    "connect",
    "obs",
    "prob",
    "serve",
}


def test_top_level_surface_is_the_session_api():
    assert set(repro.__all__) == EXPECTED_TOP_LEVEL
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ exports missing attribute {name}"


def test_session_and_query_expose_the_documented_methods():
    for method in ("query", "sql", "evaluate_ctable", "create_schema",
                   "load_rows", "clear_caches", "cancel", "close"):
        assert callable(getattr(repro.Session, method))
    for method in ("certain", "possible", "answer_object", "knowledge",
                   "boolean", "explain", "cursor"):
        assert callable(getattr(repro.Query, method))
    for method in ("fetchmany", "fetchall", "batches", "close"):
        assert callable(getattr(repro.Cursor, method))


DOCS_API = pathlib.Path(__file__).resolve().parents[1] / "docs" / "api.md"


def _removed_in_2_0():
    """The ``repro.…`` code spans of the left column of docs/api.md's table.

    Returns ``(dotted, keywords)`` pairs: ``repro.x.f(a=, b=)`` names the
    keywords ``f`` no longer accepts; any other span names an attribute
    that must be gone (call arguments such as ``(q, db)`` are ignored).
    """
    text = DOCS_API.read_text(encoding="utf-8")
    section = text.split("## Removed in 2.0", 1)[1].split("\n## ", 1)[0]
    entries = []
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        removed_column = line.split(" | ", 1)[0]
        for span in re.findall(r"`(repro\.[^`]+)`", removed_column):
            dotted, _, arguments = span.partition("(")
            keywords = tuple(re.findall(r"(\w+)=", arguments))
            entries.append((dotted, keywords))
    return entries


REMOVED = _removed_in_2_0()


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``; return (parent, last name)."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            parent = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            parent = getattr(parent, name)
        return parent, parts[-1]
    raise AssertionError(f"cannot import any prefix of {dotted}")


def test_the_removal_table_is_read():
    assert len(REMOVED) >= 40
    assert len([keywords for _, keywords in REMOVED if keywords]) >= 8


@pytest.mark.parametrize(
    "dotted", sorted({dotted for dotted, keywords in REMOVED if not keywords})
)
def test_removed_names_are_absent(dotted):
    parent, name = _resolve(dotted)
    assert not hasattr(parent, name), f"{dotted} still exists"


@pytest.mark.parametrize(
    "dotted,keywords",
    [(dotted, keywords) for dotted, keywords in REMOVED if keywords],
    ids=[dotted for dotted, keywords in REMOVED if keywords],
)
def test_removed_keyword_arguments_are_gone(dotted, keywords):
    parent, name = _resolve(dotted)
    parameters = inspect.signature(getattr(parent, name)).parameters
    assert not set(keywords) & set(parameters), f"{dotted} still takes {keywords}"

