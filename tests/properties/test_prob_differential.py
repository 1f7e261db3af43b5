"""Differential tests: exact confidence vs brute-force world enumeration.

The decomposition evaluator (:func:`repro.prob.confidence`) takes
independent-AND/OR splits, exclusive-OR shortcuts and Shannon expansions
over the interned condition DAG; the oracle
(:func:`repro.prob.brute_force_confidence`) enumerates every joint
outcome of the model.  On every randomized pc-table they must agree to
floating-point tolerance — including adversarial lineages where the same
null threads through many answer rows, which is exactly where a wrong
independence split would silently miscount.
"""

import importlib
import itertools
import random

import pytest

from repro.algebra import naive_evaluate, parse_ra
from repro.algebra.ast import RelationRef, Selection
from repro.algebra.predicates import Attr, Comparison, Const
from repro.datamodel import Database, Eq, Null, Relation, Valuation
from repro.datamodel.condition_kernel import ConditionKernel
from repro.datamodel.conditional import And, Not, Or, TRUE
from repro.prob import (
    Conditioner,
    ExclusiveBlock,
    ProbabilityModel,
    brute_force_confidence,
    confidence,
    monte_carlo_confidence,
)
from repro.prob.lineage import prob_lineage
from repro.resilience import Budget, BudgetExceeded, InvalidRequestError
from repro.session import connect

CONDITION_SEEDS = list(range(120))
LINEAGE_SEEDS = list(range(50))
CONDITIONING_SEEDS = list(range(40))
MONTE_CARLO_SEEDS = list(range(10))


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def random_model(rng, with_block=True):
    """A model over x0..x3 (independent) plus an optional 2-null block."""
    independent = {}
    for index in range(rng.randint(2, 4)):
        null = Null(f"x{index}")
        size = rng.randint(2, 3)
        weights = [rng.uniform(0.2, 1.0) for _ in range(size)]
        total = sum(weights)
        independent[null] = {
            value: weight / total
            for value, weight in zip(rng.sample([1, 2, 3, 4], size), weights)
        }
    blocks = []
    if with_block and rng.random() < 0.7:
        b0, b1 = Null("b0"), Null("b1")
        count = rng.randint(2, 3)
        weights = [rng.uniform(0.2, 1.0) for _ in range(count)]
        total = sum(weights)
        pairs = rng.sample(list(itertools.product([1, 2, 3], repeat=2)), count)
        blocks.append(
            ExclusiveBlock(
                [
                    ({b0: v0, b1: v1}, weight / total)
                    for (v0, v1), weight in zip(pairs, weights)
                ]
            )
        )
    return ProbabilityModel(independent=independent, blocks=blocks)


def random_condition(rng, nulls, depth):
    """A random condition tree: null=const / null=null atoms under ∧/∨/¬."""
    if depth == 0 or rng.random() < 0.3:
        null = rng.choice(nulls)
        if rng.random() < 0.6:
            # Constants drawn slightly wider than the supports, so some
            # atoms are certainly false and some pinnings contradict.
            return Eq(null, rng.choice([1, 2, 3, 4, 5]))
        other = rng.choice(nulls)
        if other is null:
            return Eq(null, rng.choice([1, 2, 3]))
        return Eq(null, other)
    roll = rng.random()
    if roll < 0.2:
        return Not(random_condition(rng, nulls, depth - 1))
    parts = tuple(
        random_condition(rng, nulls, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return And(parts) if roll < 0.6 else Or(parts)


# ----------------------------------------------------------------------
# exact vs brute force
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CONDITION_SEEDS)
def test_exact_matches_brute_force(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    nulls = sorted(model.nulls(), key=lambda n: n.name)
    kernel = ConditionKernel()
    for _ in range(4):
        cond = random_condition(rng, nulls, depth=3)
        exact = confidence(cond, model, kernel)
        oracle = brute_force_confidence(cond, model)
        assert exact == pytest.approx(oracle, abs=1e-9), f"{cond!r}"


@pytest.mark.parametrize("seed", CONDITION_SEEDS[:30])
def test_memoized_reevaluation_is_stable(seed):
    # The same kernel answers the same condition twice (second time from
    # the shared memo); both answers must equal the oracle.
    rng = random.Random(seed)
    model = random_model(rng)
    nulls = sorted(model.nulls(), key=lambda n: n.name)
    kernel = ConditionKernel()
    cond = random_condition(rng, nulls, depth=3)
    first = confidence(cond, model, kernel)
    second = confidence(cond, model, kernel)
    assert first == second == pytest.approx(brute_force_confidence(cond, model), abs=1e-9)


# ----------------------------------------------------------------------
# adversarial shared-null lineages through the session path
# ----------------------------------------------------------------------
def shared_null_database(rng, model):
    """R/2 ⋈ S/2 with model nulls reused across rows of both relations.

    Reusing one null in many rows correlates the answer lineages — the
    adversarial case for the evaluator's independence detection.
    """
    nulls = sorted(model.nulls(), key=lambda n: n.name)
    constants = [1, 2, 3]

    def cell():
        if rng.random() < 0.5:
            return rng.choice(nulls)
        return rng.choice(constants)

    r_rows = [(cell(), cell()) for _ in range(rng.randint(2, 4))]
    s_rows = [(cell(), cell()) for _ in range(rng.randint(2, 4))]
    return Database.from_relations(
        [
            Relation.create("R", r_rows, attributes=("a", "b")),
            Relation.create("S", s_rows, attributes=("b", "c")),
        ]
    )


def oracle_confidences(query, database, model, constraint=None):
    """Answer probabilities by full world enumeration."""
    answers = {}
    normalization = 0.0
    for assignment, probability in model.joint_outcomes(model.nulls()):
        valuation = Valuation(assignment)
        if constraint is not None and not constraint.evaluate(valuation):
            continue
        normalization += probability
        world = valuation.apply(database)
        for row in naive_evaluate(query, world):
            answers[row] = answers.get(row, 0.0) + probability
    if constraint is not None:
        assert normalization > 0.0
        answers = {row: p / normalization for row, p in answers.items()}
    return answers


@pytest.mark.parametrize("seed", LINEAGE_SEEDS)
def test_query_confidence_matches_world_enumeration(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    database = shared_null_database(rng, model)
    session = connect(database, semantics="prob", model=model)
    query = parse_ra("join(R, S)")
    ranked = session.query(query).confidence()
    oracle = oracle_confidences(query, database, model)
    assert {row: p for row, p in ranked} == pytest.approx(
        {row: p for row, p in oracle.items() if p > 0.0}, abs=1e-9
    )
    # Ranking is by descending probability.
    probabilities = [float(p) for _, p in ranked]
    assert probabilities == sorted(probabilities, reverse=True)


@pytest.mark.parametrize("seed", LINEAGE_SEEDS[:20])
def test_projection_lineage_matches_world_enumeration(seed):
    # Projection merges lineages with OR — the disjuncts share nulls.
    rng = random.Random(seed)
    model = random_model(rng)
    database = shared_null_database(rng, model)
    session = connect(database, semantics="prob", model=model)
    query = parse_ra("project[a](join(R, S))")
    ranked = session.query(query).confidence()
    oracle = oracle_confidences(query, database, model)
    assert {row: p for row, p in ranked} == pytest.approx(
        {row: p for row, p in oracle.items() if p > 0.0}, abs=1e-9
    )


# ----------------------------------------------------------------------
# conditioning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", CONDITIONING_SEEDS)
def test_conditioning_matches_conditional_brute_force(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    nulls = sorted(model.nulls(), key=lambda n: n.name)
    kernel = ConditionKernel()
    constraint = random_condition(rng, nulls, depth=2)
    p_constraint = brute_force_confidence(constraint, model)
    if p_constraint <= 0.0:
        with pytest.raises(InvalidRequestError):
            Conditioner(constraint, model, kernel)
        return
    conditioner = Conditioner(constraint, model, kernel)
    for _ in range(3):
        cond = random_condition(rng, nulls, depth=2)
        joint = brute_force_confidence(And((cond, constraint)).simplify(), model)
        assert conditioner.probability(cond) == pytest.approx(
            joint / p_constraint, abs=1e-9
        )


def test_conditioning_on_true_is_identity():
    model = ProbabilityModel(independent={Null("x"): {1: 0.5, 2: 0.5}})
    conditioner = Conditioner(TRUE, model)
    assert conditioner.normalization == 1.0
    assert conditioner.given() is None
    assert conditioner.probability(Eq(Null("x"), 1)) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Monte Carlo fallback
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", MONTE_CARLO_SEEDS)
def test_monte_carlo_interval_contains_exact(seed):
    rng = random.Random(seed)
    model = random_model(rng)
    nulls = sorted(model.nulls(), key=lambda n: n.name)
    cond = random_condition(rng, nulls, depth=3)
    exact = brute_force_confidence(cond, model)
    interval = monte_carlo_confidence(cond, model, samples=20_000, seed=seed)
    # 95% Wilson interval over 20k samples on fixed seeds: the exact
    # value sits inside (seeds are pinned, so no flakiness).
    assert exact in interval
    assert interval.low <= interval.estimate <= interval.high


# ----------------------------------------------------------------------
# support pruning: planned lineage vs the unpruned interpreter lineage
# ----------------------------------------------------------------------
PRUNING_SEEDS = list(range(40))

#: Support values of one equality class, written three ways: a null with
#: support {True} must meet the constant 1, and one with {1.0} the
#: constant True, exactly as the interpreter's unpruned lineage does.
ONES = (1, 1.0, True)

#: Constants of the tables: ``1``/``True`` collide with ``ONES``; 5 lies
#: outside every support, so every pairing of a null with it is pruned.
TABLE_CONSTANTS = (1, True, 2, 3, 5)


def _support_values(rng, size):
    """``size`` values of distinct equality classes, the 1-class spelled at random."""
    classes = rng.sample([None, 2, 3, 4], size)
    return [rng.choice(ONES) if value is None else value for value in classes]


def pruning_model(rng):
    """Independent nulls u0..u2 plus (sometimes) an exclusive block {v0, v1}."""
    independent = {}
    for index in range(rng.randint(2, 3)):
        values = _support_values(rng, rng.randint(1, 3))
        weights = [rng.uniform(0.2, 1.0) for _ in values]
        total = sum(weights)
        independent[Null(f"u{index}")] = {
            value: weight / total for value, weight in zip(values, weights)
        }
    blocks = []
    if rng.random() < 0.6:
        v0, v1 = Null("v0"), Null("v1")
        alternatives = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            pair = tuple(_support_values(rng, 1)[0] for _ in range(2))
            if pair not in seen:
                seen.add(pair)
                alternatives.append(pair)
        weights = [rng.uniform(0.2, 1.0) for _ in alternatives]
        total = sum(weights)
        blocks.append(
            ExclusiveBlock(
                [({v0: a, v1: b}, weight / total) for (a, b), weight in zip(alternatives, weights)]
            )
        )
    return ProbabilityModel(independent=independent, blocks=blocks)


def pruning_database(rng, model):
    """R(a, b), S(b, c), T(a, b): shared model nulls in every column.

    Table sizes vary so the planner puts either side of a join on the
    probe side, and the nulls land in join keys on both sides.
    """
    nulls = sorted(model.nulls(), key=lambda n: n.name)

    def cell():
        return rng.choice(nulls) if rng.random() < 0.45 else rng.choice(TABLE_CONSTANTS)

    def rows(count):
        return [(cell(), cell()) for _ in range(count)]

    return Database.from_relations(
        [
            Relation.create("R", rows(rng.randint(1, 5)), attributes=("a", "b")),
            Relation.create("S", rows(rng.randint(1, 5)), attributes=("b", "c")),
            Relation.create("T", rows(rng.randint(1, 4)), attributes=("a", "b")),
        ]
    )


def _selection(child, attribute, op, constant):
    return Selection(RelationRef(child), Comparison(Attr(attribute), op, Const(constant)))


PRUNING_QUERIES = {
    "join": parse_ra("join(R, S)"),
    "join-flipped": parse_ra("join(S, R)"),
    "join-projected": parse_ra("project[a, c](join(R, S))"),
    "join-two-keys": parse_ra("join(R, T)"),
    "difference": parse_ra("diff(R, T)"),
    "intersection": parse_ra("intersect(R, T)"),
    "select-int": parse_ra("select[b = 1](R)"),
    "select-outside": parse_ra("select[a = 5](R)"),
    "select-not-equal": parse_ra("select[b != 2](S)"),
    "select-true": _selection("R", "b", "=", True),
    "select-null-columns": parse_ra("select[a = b](T)"),
}


def _as_floats(ranked):
    return {row: float(p) for row, p in ranked}


def _assert_same_answers(actual, expected, tolerance=1e-9):
    assert set(actual) == set(expected)
    for row, p in expected.items():
        assert actual[row] == pytest.approx(p, abs=tolerance), row


def brute_force_answers(session, query, database, model, constraint=None):
    """Brute-force scores of the *interpreter's* (unpruned) lineage."""
    candidates, given = prob_lineage(
        query, database, model, ConditionKernel(), session.evaluate_ctable, constraint
    )
    normalization = 1.0 if given is None else brute_force_confidence(given, model)
    answers = {}
    for values, lineage in candidates:
        joint = lineage if given is None else And((lineage, given))
        p = brute_force_confidence(joint, model) / normalization
        if p > 0.0:
            answers[values] = p
    return answers


def positive_constraint(rng, model):
    """A constraint of positive probability: one null avoids one support value."""
    for null in sorted(model.nulls(), key=lambda n: n.name):
        support = model.support(null)
        if len(support) > 1:
            return Not(Eq(null, rng.choice(support)))
    null = rng.choice(sorted(model.nulls(), key=lambda n: n.name))
    return Eq(null, model.support(null)[0])


@pytest.mark.parametrize("seed", PRUNING_SEEDS)
def test_pruned_lineage_matches_interpreter_and_brute_force(seed):
    rng = random.Random(seed)
    model = pruning_model(rng)
    database = pruning_database(rng, model)
    constraint = positive_constraint(rng, model)
    with connect(database, semantics="prob", model=model) as planned, connect(
        database, semantics="prob", model=model, engine="interpreter"
    ) as interpreter:
        for name, query in PRUNING_QUERIES.items():
            expected = brute_force_answers(interpreter, query, database, model)
            _assert_same_answers(expected, oracle_confidences(query, database, model))
            _assert_same_answers(_as_floats(interpreter.query(query).confidence()), expected)
            _assert_same_answers(_as_floats(planned.query(query).confidence()), expected)

            conditioned = brute_force_answers(interpreter, query, database, model, constraint)
            _assert_same_answers(
                conditioned, oracle_confidences(query, database, model, constraint)
            )
            for session in (planned, interpreter):
                ranked = session.query(query).condition_on(constraint).confidence()
                _assert_same_answers(_as_floats(ranked), conditioned)


def _expire_after(function, limit):
    """``function``, raising :class:`BudgetExceeded` from call ``limit + 1`` on."""
    calls = []

    def scorer(*args, **kwargs):
        calls.append(None)
        if len(calls) > limit:
            raise BudgetExceeded("forced expiry", resource="deadline")
        return function(*args, **kwargs)

    return scorer


@pytest.mark.parametrize("seed", PRUNING_SEEDS[:12])
def test_pruned_lineage_degrades_to_monte_carlo(seed, monkeypatch):
    # The degrade path samples the pruned lineage: its estimates must
    # land on the unpruned brute-force answers, with and without a
    # condition_on constraint.
    exact_module = importlib.import_module("repro.prob.confidence")

    rng = random.Random(seed)
    model = pruning_model(rng)
    database = pruning_database(rng, model)
    constraint = positive_constraint(rng, model)
    with connect(database, semantics="prob", model=model) as planned, connect(
        database, semantics="prob", model=model, engine="interpreter"
    ) as interpreter:
        for name in ("join", "join-two-keys", "difference", "select-true"):
            query = PRUNING_QUERIES[name]
            for given in (None, constraint):
                expected = brute_force_answers(interpreter, query, database, model, given)
                monkeypatch.setattr(
                    exact_module, "confidence", _expire_after(exact_module.confidence, 1)
                )
                monkeypatch.setattr(
                    Conditioner, "probability", _expire_after(Conditioner.probability, 1)
                )
                target = planned.query(query)
                if given is not None:
                    target = target.condition_on(given)
                ranked = target.confidence(
                    budget=Budget(max_worlds=10**9), samples=4000, seed=seed
                )
                monkeypatch.undo()
                estimated = _as_floats(ranked)
                for row in set(estimated) | set(expected):
                    assert estimated.get(row, 0.0) == pytest.approx(
                        expected.get(row, 0.0), abs=0.05
                    ), (name, row)
        assert planned.metrics()["counters"].get("degrade.monte_carlo", 0) > 0


def test_worlds_shaped_join_scores_only_positive_candidates():
    # Orders(o_id, product) with constant ids; Pay(p_id, ord, amount)
    # whose unknown order references each range over four order ids.
    # Unpruned, every null reference meets every order and most of those
    # pairings score zero; pruned, each candidate is a real answer.
    rng = random.Random(7)
    ids = [f"o{index}" for index in range(40)]
    orders = [(order, f"p{index % 5}") for index, order in enumerate(ids)]
    pay, independent = [], {}
    for index in range(12):
        if index % 3 == 0:
            ref = Null(f"r{index}")
            independent[ref] = dict(zip(rng.sample(ids, 4), (0.4, 0.3, 0.2, 0.1)))
        else:
            ref = rng.choice(ids)
        pay.append((f"pay{index}", ref, 100 + index))
    database = Database.from_relations(
        [
            Relation.create("Orders", orders, attributes=("o_id", "product")),
            Relation.create("Pay", pay, attributes=("p_id", "ord", "amount")),
        ]
    )
    model = ProbabilityModel(independent=independent)
    query = parse_ra("project[o_id, amount](join(Orders, rename[P(p_id, o_id, amount)](Pay)))")
    with connect(database, semantics="prob", model=model) as session:
        ranked = session.query(query).confidence()
        counters = session.metrics()["counters"]
    assert len(ranked) == 8 + 4 * 4
    assert counters["prob.confidence.candidates"] == len(ranked)
    assert counters["ctable.support_pruned"] > 0
