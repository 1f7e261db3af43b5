"""A timing-free guard on the fixed cost of a warm request.

The warm e01 requests are dominated by what every request pays before
and after its operators run: the session entry, the strategy choice,
the plan-cache fast path and the metrics scope.  Counting the
Python-level function calls of one warm request (``sys.setprofile``
``"call"`` events, generator resumptions included) makes a regression
there fail on any machine, with no clock involved.  The limits are the
counts this code makes on CPython 3.11; an interpreter that inlines more
(3.12's comprehensions) only counts fewer.
"""

import sys

import pytest

import repro
from repro.algebra import parse_ra
from repro.workloads import orders_payments

DIFF = "diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))"
UCQ = "project[o_id, amount](join(Orders, rename[P(p_id, o_id, amount)](Pay)))"

#: (request, the most Python-level calls one warm request may make)
LIMITS = {
    "UCQ certain()": 50,
    "DIFF answer_object()": 39,
}


def _calls(request):
    """The Python-level ``call`` events of one ``request()``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        request()
    finally:
        sys.setprofile(None)
    return count - 1  # the request itself


@pytest.fixture
def session(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    database = orders_payments(num_orders=40, num_payments=8, null_fraction=0.4, seed=7)
    with repro.connect(database) as session:
        yield session


def test_a_warm_request_makes_a_bounded_number_of_calls(session):
    ucq, diff = parse_ra(UCQ), parse_ra(DIFF)
    requests = {
        "UCQ certain()": lambda: session.query(ucq).certain(),
        "DIFF answer_object()": lambda: session.query(diff).answer_object(),
    }
    for request in requests.values():  # warm: plan cache, pins, strategy pick
        request()
        request()
    counts = {name: _calls(request) for name, request in requests.items()}
    for name, count in counts.items():
        assert count <= LIMITS[name], f"{name}: {count} calls, limit {LIMITS[name]}"


def test_the_count_covers_the_entry_and_the_operators(session):
    # The guard counts what it claims to: the same request with metrics
    # off skips the metrics scope and makes fewer calls.
    ucq = parse_ra(UCQ)
    session.query(ucq).certain()
    with repro.connect(session.database, metrics=False) as quiet:
        quiet.query(ucq).certain()
        assert _calls(lambda: quiet.query(ucq).certain()) < _calls(
            lambda: session.query(ucq).certain()
        )
