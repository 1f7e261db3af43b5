"""Benchmark E16 — RA_cwa (division) queries: naive evaluation vs enumeration.

The "who takes every course" division query is in ``RA_cwa``, so CWA-naive
evaluation is correct; the series shows it is also orders of magnitude
cheaper than the intersection-of-worlds baseline as soon as nulls appear,
and that it scales polynomially with the number of students.
"""

import pytest

import repro
from repro.algebra import naive_certain_answers, parse_ra
from repro.workloads import enrolment

QUERY = parse_ra("divide(Enroll, Courses)")

STUDENT_COUNTS = [5, 15, 40]


def _db(num_students, null_fraction=0.1, courses=3):
    return enrolment(
        num_students=num_students,
        num_courses=courses,
        enrol_probability=0.8,
        null_fraction=null_fraction,
        seed=4,
    )


@pytest.mark.parametrize("num_students", STUDENT_COUNTS)
def test_naive_division(benchmark, num_students):
    database = _db(num_students)
    benchmark.group = f"e16 students={num_students}"
    benchmark(naive_certain_answers, QUERY, database)


@pytest.mark.parametrize("num_students", STUDENT_COUNTS[:1])
def test_enumeration_division(benchmark, num_students):
    database = _db(num_students)
    benchmark.group = f"e16 students={num_students}"
    benchmark(repro.connect(database).query(QUERY).certain, method="enumeration")


@pytest.mark.parametrize("num_students", STUDENT_COUNTS)
def test_naive_division_complete_data(benchmark, num_students):
    database = _db(num_students, null_fraction=0.0)
    benchmark.group = f"e16 complete students={num_students}"
    benchmark(naive_certain_answers, QUERY, database)


def test_report_table(benchmark, report):
    def build_rows():
        rows = []
        for num_students in STUDENT_COUNTS:
            database = _db(num_students)
            naive = naive_certain_answers(QUERY, database)
            if len(database.nulls()) <= 3:
                exact = repro.connect(database).query(QUERY).certain(method="enumeration")
                agree = naive.rows == exact.rows
                exact_size = len(exact)
            else:
                agree, exact_size = "(guaranteed by Thm)", "-"
            rows.append(
                [num_students, database.size(), len(database.nulls()), len(naive), exact_size, agree]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    report(
        "E16: division under CWA — naive certain answers (= exact where checked)",
        ["students", "facts", "nulls", "|naive|", "|exact|", "agree?"],
        rows,
    )
    assert rows
