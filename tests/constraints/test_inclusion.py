"""Unit tests for inclusion dependencies over incomplete databases."""

import pytest

from repro.constraints import InclusionDependency, foreign_key, referential_integrity_report
from repro.datamodel import Database, Null, Relation
from repro.semantics import enumerate_certain_boolean, enumerate_possible_boolean


def _orders_db(pay_rows):
    return Database.from_relations(
        [
            Relation.create("Orders", [("oid1", "pr1"), ("oid2", "pr2")], attributes=("o_id", "product")),
            Relation.create("Pay", pay_rows, attributes=("p_id", "ord", "amount")),
        ]
    )


PAY_FK = InclusionDependency("Pay", ("ord",), "Orders", ("o_id",))


class TestConstruction:
    def test_str(self):
        assert str(PAY_FK) == "Pay[ord] ⊆ Orders[o_id]"

    def test_validation(self):
        with pytest.raises(ValueError):
            InclusionDependency("R", (), "S", ())
        with pytest.raises(ValueError):
            InclusionDependency("R", ("a",), "S", ("a", "b"))

    def test_foreign_key_helper(self):
        fk = foreign_key("Pay", ("ord",), "Orders", ("o_id",))
        assert fk == PAY_FK


class TestNaiveSatisfaction:
    def test_satisfied_when_all_references_resolve(self):
        db = _orders_db([("pid1", "oid1", 100)])
        assert PAY_FK.satisfied_naively(db)
        assert PAY_FK.unmatched_values(db) == []

    def test_violated_by_a_dangling_reference(self):
        db = _orders_db([("pid1", "oid9", 100)])
        assert not PAY_FK.satisfied_naively(db)
        assert PAY_FK.unmatched_values(db) == [("oid9",)]

    def test_null_reference_is_naively_dangling(self):
        db = _orders_db([("pid1", Null("o"), 100)])
        assert not PAY_FK.satisfied_naively(db)

    def test_multi_attribute_ind(self):
        ind = InclusionDependency("R", ("a", "b"), "S", ("x", "y"))
        db = Database.from_relations(
            [
                Relation.create("R", [(1, 2)], attributes=("a", "b")),
                Relation.create("S", [(1, 2), (3, 4)], attributes=("x", "y")),
            ]
        )
        assert ind.satisfied_naively(db)


class TestCertainAndPossibleSatisfaction:
    def test_certain_iff_naive(self):
        resolved = _orders_db([("pid1", "oid1", 100)])
        dangling = _orders_db([("pid1", Null("o"), 100)])
        assert PAY_FK.satisfied_certainly(resolved)
        assert not PAY_FK.satisfied_certainly(dangling)

    def test_null_reference_is_possibly_satisfied(self):
        db = _orders_db([("pid1", Null("o"), 100)])
        assert PAY_FK.satisfied_possibly(db)

    def test_constant_dangling_reference_is_not_possibly_satisfied(self):
        db = _orders_db([("pid1", "oid9", 100)])
        assert not PAY_FK.satisfied_possibly(db)

    def test_shared_null_cannot_satisfy_two_incompatible_references(self):
        # The same unknown order is referenced twice; a single world can
        # still resolve both (they are the same value), so this is possible.
        db = _orders_db([("pid1", Null("o"), 100), ("pid2", Null("o"), 50)])
        assert PAY_FK.satisfied_possibly(db)

    def test_possible_satisfaction_respects_null_sharing_with_rhs(self):
        # Pay references ⊥o while Orders has only ⊥p as key: they can be unified.
        db = Database.from_relations(
            [
                Relation.create("Orders", [(Null("p"), "pr1")], attributes=("o_id", "product")),
                Relation.create("Pay", [("pid1", Null("o"), 10)], attributes=("p_id", "ord", "amount")),
            ]
        )
        assert PAY_FK.satisfied_possibly(db)

    @pytest.mark.parametrize(
        "pay_rows",
        [
            [("pid1", "oid1", 100)],
            [("pid1", Null("o"), 100)],
            [("pid1", "oid9", 100)],
            [("pid1", Null("o"), 100), ("pid2", "oid2", 10)],
        ],
    )
    def test_certain_and_possible_agree_with_world_enumeration(self, pay_rows):
        db = _orders_db(pay_rows)
        check = lambda world: PAY_FK.satisfied_naively(world)
        assert PAY_FK.satisfied_certainly(db) == enumerate_certain_boolean(check, db, "cwa")
        assert PAY_FK.satisfied_possibly(db) == enumerate_possible_boolean(check, db, "cwa")


class TestSelfReferencingInd:
    MANAGER = InclusionDependency("Emp", ("manager",), "Emp", ("name",))

    def test_satisfied(self):
        db = Database.from_relations(
            [Relation.create("Emp", [("ann", "bob"), ("bob", "bob")], attributes=("name", "manager"))]
        )
        assert self.MANAGER.satisfied_naively(db)

    def test_possibly_satisfied_through_a_null(self):
        db = Database.from_relations(
            [Relation.create("Emp", [("ann", Null("m"))], attributes=("name", "manager"))]
        )
        assert not self.MANAGER.satisfied_naively(db)
        assert self.MANAGER.satisfied_possibly(db)


class TestReport:
    def test_report_verdicts(self):
        db = _orders_db([("pid1", "oid1", 100), ("pid2", Null("o"), 10), ("pid3", "oid9", 5)])
        report = referential_integrity_report(db, [PAY_FK])
        dependency, verdict, dangling = report[0]
        assert dependency == PAY_FK
        assert verdict == "violated"
        assert ("oid9",) in dangling

    def test_report_possible_verdict(self):
        db = _orders_db([("pid2", Null("o"), 10)])
        _, verdict, _ = referential_integrity_report(db, [PAY_FK])[0]
        assert verdict == "possible"

    def test_report_certain_verdict(self):
        db = _orders_db([("pid1", "oid1", 100)])
        _, verdict, dangling = referential_integrity_report(db, [PAY_FK])[0]
        assert verdict == "certain"
        assert dangling == []
