"""Semantics of incomplete databases: OWA, CWA, weak CWA and the probabilistic tier.

This package provides:

* the registry (:mod:`repro.semantics.registry`): one row per semantics
  name in its ``SEMANTICS``, carrying the world enumerator, membership
  test, information ordering and δ-formula of that semantics, and its
  certain-answer strategies; every ``semantics=`` name is resolved there;
* possible-world enumeration over finite constant domains
  (:mod:`repro.semantics.worlds`);
* membership tests ``D' ∈ [[D]]_*`` via homomorphism search
  (:mod:`repro.semantics.membership`); and
* brute-force, intersection-based certain answers used as ground truth
  throughout the test and benchmark suites
  (:mod:`repro.semantics.certain`).

The registry is not imported here: it builds on :mod:`repro.core`, which
builds on this package.
"""

from .certain import (
    Evaluator,
    answer_space,
    enumerate_certain_answers,
    enumerate_certain_boolean,
    enumerate_possible_answers,
    enumerate_possible_boolean,
)
from .membership import in_cwa, in_owa, in_wcwa
from .worlds import (
    count_cwa_worlds,
    cwa_worlds,
    default_domain,
    owa_worlds,
    wcwa_worlds,
)

__all__ = [
    "Evaluator",
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
    "owa_worlds",
    "wcwa_worlds",
]
