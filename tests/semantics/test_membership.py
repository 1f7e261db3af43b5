"""Unit tests for OWA / CWA / weak-CWA membership."""

import pytest

from repro.datamodel import Database, Null, Valuation
from repro.semantics import in_cwa, in_owa, in_wcwa
from repro.semantics.registry import SEMANTICS, semantics_named


@pytest.fixture
def paper_r():
    """The naive table R of Section 2 as a one-relation database."""
    bot, bot_prime = Null("b"), Null("bp")
    return Database.from_dict({"R": [(bot, 1, bot_prime), (2, bot_prime, bot)]})


class TestPaperExample:
    def test_r1_in_both_semantics(self, paper_r):
        """R1 = {(3,1,4), (2,4,3)} is obtained by ⊥→3, ⊥'→4 (Section 2)."""
        r1 = Database.from_dict({"R": [(3, 1, 4), (2, 4, 3)]})
        assert in_cwa(paper_r, r1)
        assert in_owa(paper_r, r1)

    def test_r2_only_under_owa(self, paper_r):
        """R2 adds the extra tuple (5,6,7): OWA yes, CWA no."""
        r2 = Database.from_dict({"R": [(3, 1, 4), (2, 4, 3), (5, 6, 7)]})
        assert in_owa(paper_r, r2)
        assert not in_cwa(paper_r, r2)

    def test_unrelated_database_in_neither(self, paper_r):
        other = Database.from_dict({"R": [(9, 9, 9)]})
        assert not in_owa(paper_r, other)
        assert not in_cwa(paper_r, other)


class TestGeneralProperties:
    def test_cwa_membership_matches_valuation_application(self):
        null = Null("x")
        db = Database.from_dict({"R": [(1, null)], "S": [(null,)]})
        world = Valuation({null: 9}).apply(db)
        assert in_cwa(db, world)
        assert in_owa(db, world)

    def test_owa_allows_extra_facts_cwa_does_not(self):
        null = Null("x")
        db = Database.from_dict({"R": [(1, null)]})
        world = Valuation({null: 9}).apply(db).add_facts([("R", (7, 7))])
        assert in_owa(db, world)
        assert not in_cwa(db, world)

    def test_complete_database_represents_itself(self):
        db = Database.from_dict({"R": [(1, 2)]})
        assert in_cwa(db, db)
        assert in_owa(db, db)
        assert in_wcwa(db, db)

    def test_wcwa_allows_new_tuples_over_old_values(self):
        null = Null("x")
        db = Database.from_dict({"R": [(1, null)]})
        same_adom = Database.from_dict({"R": [(1, 1)]}).add_facts([("R", (1, 1))])
        extra_tuple_same_adom = Database.from_dict({"R": [(1, 2), (2, 1)]})
        new_value = Database.from_dict({"R": [(1, 2), (3, 3)]})
        assert in_wcwa(db, same_adom)
        assert in_wcwa(db, extra_tuple_same_adom)
        assert not in_wcwa(db, new_value)
        assert in_owa(db, new_value)

    def test_right_hand_side_must_be_complete(self):
        db = Database.from_dict({"R": [(1,)]})
        incomplete = Database.from_dict({"R": [(Null("x"),)]})
        with pytest.raises(ValueError):
            in_cwa(db, incomplete)

    def test_every_registry_row_holds_its_membership_test(self):
        db = Database.from_dict({"R": [(Null("x"),)]})
        world = Database.from_dict({"R": [(1,)]})
        for row in SEMANTICS.values():
            assert row.member(db, world)
        assert SEMANTICS["prob"].member is in_cwa
        with pytest.raises(ValueError):
            semantics_named("nope")

    def test_cwa_implies_wcwa_implies_owa(self):
        """On a small sample, the three semantics are ordered by inclusion."""
        null = Null("x")
        db = Database.from_dict({"R": [(1, null), (null, 2)]})
        candidates = [
            Database.from_dict({"R": [(1, 3), (3, 2)]}),
            Database.from_dict({"R": [(1, 1), (1, 2)]}),
            Database.from_dict({"R": [(1, 1), (1, 2), (2, 2)]}),
            Database.from_dict({"R": [(1, 1), (1, 2), (5, 5)]}),
            Database.from_dict({"R": [(4, 4)]}),
        ]
        for world in candidates:
            if in_cwa(db, world):
                assert in_wcwa(db, world)
            if in_wcwa(db, world):
                assert in_owa(db, world)
