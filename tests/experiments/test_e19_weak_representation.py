"""E19 — Section 2, weak representation systems.

Paper claim: the best-known weak representation systems, under both OWA and
CWA, are

* Codd tables for selection/projection queries, and
* naive tables for UCQs (positive relational algebra):

evaluating the query naively yields a table A with
``[[A]] ~_L Q([[D]])`` — equivalently, ``A_cmpl = certain(Q, D)``, and this
stays true for any *follow-up* query from the language applied to A (the
compositionality that motivates the definition).
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, naive_evaluate, parse_ra
from repro.datamodel import Database, Null, Relation
from repro.semantics import enumerate_certain_answers
from repro.workloads import random_database, random_positive_query


def codd_database(seed=0):
    """A database in which every null occurs exactly once (Codd/SQL nulls)."""
    return Database.from_relations(
        [
            Relation.create(
                "R",
                [(1, Null(f"c{seed}_1")), (2, 3), (Null(f"c{seed}_2"), 5)],
                attributes=("A", "B"),
            ),
            Relation.create("S", [(3, Null(f"c{seed}_3"))], attributes=("B", "C")),
        ]
    )


SP_QUERIES = [
    "project[A](R)",
    "select[B = 3](R)",
    "project[B](select[A = 2](R))",
    "project[A, B](R)",
]

UCQ_QUERIES = [
    "union(project[B](R), project[B](S))",
    "project[A](join(R, S))",
    "project[#0](product(project[A](R), project[C](S)))",
]


class TestCoddTablesForSelectionProjection:
    @pytest.mark.parametrize("query_text", SP_QUERIES)
    @pytest.mark.parametrize("semantics,extra", [("cwa", 0), ("owa", 1)])
    def test_complete_part_of_naive_answer_is_certain(self, query_text, semantics, extra):
        database = codd_database()
        assert database.is_codd()
        query = parse_ra(query_text)
        answer_table = naive_evaluate(query, database)
        certain = (
            repro.connect(database, semantics=semantics)
            .query(query)
            .certain(method="enumeration", max_extra_facts=extra)
        )
        assert answer_table.complete_part().rows == certain.rows

    @pytest.mark.parametrize("query_text", SP_QUERIES)
    def test_followup_queries_keep_working(self, query_text):
        """Compositionality: apply a further selection/projection to the answer table."""
        database = codd_database()
        query = parse_ra(query_text)
        answer_table = naive_evaluate(query, database).rename("A")
        answer_db = Database.from_relations([answer_table])
        followup = parse_ra("project[#0](A)")
        naive_then_followup = naive_certain_answers(followup, answer_db)
        # ground truth: the certain answer of the composed query on the original D
        composed_certain = enumerate_certain_answers(
            lambda world: followup.evaluate(
                Database.from_relations([query.evaluate(world).rename("A")])
            ),
            database,
            semantics="cwa",
        )
        assert naive_then_followup.rows == composed_certain.rows


class TestNaiveTablesForUCQ:
    @pytest.mark.parametrize("query_text", UCQ_QUERIES)
    def test_complete_part_of_naive_answer_is_certain_cwa(self, query_text):
        database = Database.from_relations(
            [
                Relation.create(
                    "R", [(1, Null("shared")), (2, 3)], attributes=("A", "B")
                ),
                Relation.create("S", [(Null("shared"), 7), (3, 8)], attributes=("B", "C")),
            ]
        )
        assert not database.is_codd()  # genuinely naive: the null is shared
        query = parse_ra(query_text)
        naive = naive_certain_answers(query, database)
        certain = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == certain.rows

    @pytest.mark.parametrize("seed", range(4))
    def test_random_ucqs_on_random_naive_tables(self, seed):
        database = random_database(num_nulls=2, rows_per_relation=3, seed=seed)
        query = random_positive_query(database.schema, seed=seed + 11)
        naive = naive_certain_answers(query, database)
        certain = repro.connect(database).query(query).certain(method="enumeration")
        assert naive.rows == certain.rows

    def test_codd_tables_are_not_enough_for_joins(self):
        """The classical counterexample direction: with *marked* nulls, a join
        through a shared null is certain — Codd tables cannot express that,
        which is why the UCQ weak representation system needs naive tables."""
        shared = Null("j")
        naive_db = Database.from_relations(
            [
                Relation.create("R", [("a", shared)], attributes=("A", "B")),
                Relation.create("S", [(shared, "c")], attributes=("B", "C")),
            ]
        )
        codd_db = Database.from_relations(
            [
                Relation.create("R", [("a", Null("j1"))], attributes=("A", "B")),
                Relation.create("S", [(Null("j2"), "c")], attributes=("B", "C")),
            ]
        )
        query = parse_ra("project[A, C](join(R, S))")
        naive_certain = repro.connect(naive_db).query(query).certain(method="enumeration")
        codd_certain = repro.connect(codd_db).query(query).certain(method="enumeration")
        assert naive_certain.rows == frozenset({("a", "c")})
        assert codd_certain.rows == frozenset()
