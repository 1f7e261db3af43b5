"""MayEqualIndex: the rows that may equal a probe under some valuation."""

from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import rows_unifiable
from repro.datamodel import Null, is_null
from repro.datamodel.matching import MayEqualIndex

#: Look-alike constants (``1 == 1.0 == True == Decimal(1)``), two others,
#: and few nulls, so that rows share and repeat them.
VALUES = [1, 1.0, True, Decimal(1), 2, "a", Null("x"), Null("y"), Null("z")]
ARITY = 3

rows_of = st.lists(st.tuples(*[st.sampled_from(VALUES)] * ARITY), max_size=12)


def agree(left, right):
    """Equal wherever both hold a constant."""
    return all(is_null(a) or is_null(b) or a == b for a, b in zip(left, right))


@settings(max_examples=300, deadline=None)
@given(rows_of, st.lists(st.tuples(*[st.sampled_from(VALUES)] * ARITY), min_size=1, max_size=6))
def test_candidates_are_the_ascending_rows_agreeing_on_constants(rows, probes):
    index = MayEqualIndex(rows)
    # Several probes per index: the per-shape hashes it builds on first
    # need serve the probes after.
    for probe in probes + probes:
        got = list(index.candidates(probe))
        assert got == sorted(set(got))
        assert got == [i for i, row in enumerate(rows) if agree(probe, row)]
        unifiable = {i for i, row in enumerate(rows) if rows_unifiable(probe, row)}
        assert unifiable <= set(got)


def test_an_empty_index_has_no_candidates():
    index = MayEqualIndex([])
    assert list(index.candidates((1, 2))) == []
    assert list(index.candidates((Null("x"), 2))) == []


def test_look_alike_constants_meet_and_nulls_meet_everything():
    x = Null("x")
    rows = [(1,), (True,), (1.0,), (Decimal(1),), (2,), (x,)]
    index = MayEqualIndex(rows)
    assert list(index.candidates((Decimal(1),))) == [0, 1, 2, 3, 5]
    assert list(index.candidates((2,))) == [4, 5]
    assert list(index.candidates((Null("y"),))) == [0, 1, 2, 3, 4, 5]


def test_rows_of_arity_zero_all_meet():
    index = MayEqualIndex([(), ()])
    assert list(index.candidates(())) == [0, 1]


def test_a_repeated_null_is_left_to_the_caller():
    # (x, x) cannot equal (1, 2), but the index only compares constants.
    x = Null("x")
    index = MayEqualIndex([(x, x), (1, 3)])
    assert list(index.candidates((1, 2))) == [0]
    assert not rows_unifiable((1, 2), (x, x))


def test_threads_sharing_an_index_see_only_whole_hashes():
    # A table's position index is shared by a server's threads; each
    # per-shape hash is built on first need by whichever thread asks.
    import sys
    import threading

    x, y = Null("x"), Null("y")
    rows = [(i % 5, i % 3, x if i % 4 == 0 else i % 2) for i in range(200)] + [(y, 1, 1)]
    probes = [(1, 1, 1), (x, 1, y), (2, y, 0), (y, y, 1), (3, 2, y)]
    expected = {p: [i for i, row in enumerate(rows) if agree(p, row)] for p in probes}
    mismatches = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            index = MayEqualIndex(rows)

            def probe_all(index=index):
                for probe in probes:
                    if list(index.candidates(probe)) != expected[probe]:
                        mismatches.append(probe)

            threads = [threading.Thread(target=probe_all) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
