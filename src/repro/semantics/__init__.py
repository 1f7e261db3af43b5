"""Semantics of incomplete databases: OWA, CWA, weak CWA.

This package provides:

* possible-world enumeration over finite constant domains
  (:mod:`repro.semantics.worlds`);
* membership tests ``D' ∈ [[D]]_*`` via homomorphism search
  (:mod:`repro.semantics.membership`); and
* brute-force, intersection-based certain answers used as ground truth
  throughout the test and benchmark suites
  (:mod:`repro.semantics.certain`).
"""

from .certain import (
    Evaluator,
    answer_space,
    enumerate_certain_answers,
    enumerate_certain_boolean,
    enumerate_possible_answers,
    enumerate_possible_boolean,
)
from .membership import SEMANTICS, in_cwa, in_owa, in_wcwa, is_member
from .worlds import (
    count_cwa_worlds,
    cwa_worlds,
    default_domain,
    owa_worlds,
    wcwa_worlds,
    worlds,
)

__all__ = [
    "Evaluator",
    "SEMANTICS",
    "answer_space",
    "count_cwa_worlds",
    "cwa_worlds",
    "default_domain",
    "enumerate_certain_answers",
    "enumerate_certain_boolean",
    "enumerate_possible_answers",
    "enumerate_possible_boolean",
    "in_cwa",
    "in_owa",
    "in_wcwa",
    "is_member",
    "owa_worlds",
    "wcwa_worlds",
    "worlds",
]
