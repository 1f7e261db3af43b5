"""RA_cwa in action: trusting division queries under the closed-world semantics.

Run with::

    python examples/division_cwa.py

The Section 6.2 message of the paper: positive relational algebra extended
with division (by base relations or RA(Δ,π,×,∪) queries) can be evaluated
naively under CWA and the answers are certain.  This script runs the
classic "students who take every course" query over an incomplete
enrolment database and cross-checks naive evaluation against brute-force
possible-world enumeration.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import repro
from repro.algebra import classify, parse_ra
from repro.core import naive_evaluation_applies
from repro.datamodel import Database, Null, Relation
from repro.logic import ra_to_calculus


def build_database():
    return Database.from_relations(
        [
            Relation.create(
                "Enroll",
                [
                    ("alice", "db"),
                    ("alice", "os"),
                    ("alice", "ml"),
                    ("bob", "db"),
                    ("bob", Null("bob_other")),
                    ("carol", "db"),
                    ("carol", "os"),
                ],
                attributes=("student", "course"),
            ),
            Relation.create("Courses", [("db",), ("os",), ("ml",)], attributes=("course",)),
        ]
    )


def main():
    database = build_database()
    print("Incomplete enrolment data (bob's second course is unknown):\n")
    print(database.to_table())

    query = parse_ra("divide(Enroll, Courses)")
    print("\nQuery:", query)
    print("Fragment:", classify(query).value)
    print("Naive evaluation trustworthy under CWA?", naive_evaluation_applies(query, "cwa"))
    print("Naive evaluation trustworthy under OWA?", naive_evaluation_applies(query, "owa"))

    session = repro.connect(database, semantics="cwa")
    handle = session.query(query)
    naive = handle.certain(method="naive")
    exact = handle.certain(method="enumeration")
    print("\nStudents certainly taking every course (naive):", sorted(naive.rows))
    print("Students certainly taking every course (exact):", sorted(exact.rows))
    assert naive.rows == exact.rows

    # The Pos∀G view of the same query (Section 6.2: RA_cwa = Pos∀G).
    translated = ra_to_calculus(query, database.schema)
    print("\nThe same query in relational calculus (a Pos∀G formula):")
    print(" ", translated)

    # Under OWA the division answer would not be certain: a world may add a
    # course nobody heard of.  Show the contrast on fully complete data.
    complete = database.map_values(lambda v: "os" if isinstance(v, Null) else v)
    owa_session = repro.connect(complete, semantics="owa")
    owa_exact = owa_session.query(query).certain(method="enumeration", max_extra_facts=1)
    print("\nOn complete data, certain answers under OWA:", sorted(owa_exact.rows))
    print("(empty: an open world might always contain one more course)")


if __name__ == "__main__":
    main()
