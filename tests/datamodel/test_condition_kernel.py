"""Unit tests for the hash-consed condition kernel."""

import pytest

from repro.datamodel import (
    FALSE,
    TRUE,
    And,
    Eq,
    Neq,
    Not,
    Null,
    Or,
    ConditionKernel,
    Valuation,
    kernel_nulls,
)

x, y, z = Null("x"), Null("y"), Null("z")


@pytest.fixture
def kernel():
    return ConditionKernel()


class TestInterning:
    def test_structurally_equal_conditions_become_identical(self, kernel):
        assert kernel.eq(x, 1) is kernel.eq(Null("x"), 1)
        a = kernel.conjunction((kernel.eq(x, 1), kernel.eq(y, 2)))
        b = kernel.conjunction((kernel.eq(x, 1), kernel.eq(y, 2)))
        assert a is b

    def test_intern_is_idempotent(self, kernel):
        condition = kernel.intern(And((Eq(x, 1), Or((Eq(y, 2), Eq(z, 3))))))
        assert kernel.intern(condition) is condition

    def test_interning_simplifies(self, kernel):
        assert kernel.intern(Eq(1, 1)) is TRUE
        assert kernel.intern(Eq(1, 2)) is FALSE
        assert kernel.intern(Eq(x, x)) is TRUE
        assert kernel.intern(Not(Not(Eq(x, 1)))) is kernel.eq(x, 1)
        assert kernel.intern(And((Eq(x, 1), TRUE))) is kernel.eq(x, 1)
        assert kernel.intern(Or((Eq(x, 1), TRUE))) is TRUE

    def test_singletons_are_canonical(self, kernel):
        assert kernel.intern(TRUE) is TRUE
        assert kernel.intern(FALSE) is FALSE

    def test_clear_resets_tables(self, kernel):
        kernel.eq(x, "fresh-value")
        assert kernel.stats()["interned"] > 0
        kernel.clear()
        assert kernel.stats() == {"interned": 0, "and_memo": 0, "or_memo": 0, "confidence_memo": 0}

    def test_nodes_surviving_a_clear_reintern(self, kernel):
        """A pre-clear canonical node must not satisfy identity checks by a stale mark."""
        old = kernel.eq(x, 1)
        old_negation = kernel.not_(old)
        kernel.clear()
        fresh = kernel.eq(x, 1)
        assert kernel.intern(old) is fresh
        # composing a survivor with its new-generation twin must still dedup
        assert kernel.conjunction((old, fresh)) is fresh
        # and cached negations from the old generation are not reused
        assert kernel.not_(fresh) is not old_negation
        assert kernel.not_(fresh) == old_negation


class TestConnectives:
    def test_and_flattens_and_deduplicates(self, kernel):
        e1, e2 = kernel.eq(x, 1), kernel.eq(y, 2)
        nested = kernel.and_(kernel.and_(e1, e2), e1)
        assert isinstance(nested, And)
        assert nested.operands == (e1, e2)

    def test_or_flattens_and_deduplicates(self, kernel):
        e1, e2 = kernel.eq(x, 1), kernel.eq(y, 2)
        nested = kernel.or_(kernel.or_(e1, e2), e2)
        assert isinstance(nested, Or)
        assert nested.operands == (e1, e2)

    def test_connective_constants(self, kernel):
        e = kernel.eq(x, 1)
        assert kernel.and_(TRUE, e) is e
        assert kernel.and_(e, FALSE) is FALSE
        assert kernel.or_(FALSE, e) is e
        assert kernel.or_(e, TRUE) is TRUE
        assert kernel.conjunction(()) is TRUE
        assert kernel.disjunction(()) is FALSE

    def test_binary_memo_returns_same_object(self, kernel):
        e1, e2 = kernel.eq(x, 1), kernel.eq(y, 2)
        assert kernel.and_(e1, e2) is kernel.and_(e1, e2)
        assert kernel.or_(e1, e2) is kernel.or_(e1, e2)

    def test_not_round_trip(self, kernel):
        e = kernel.eq(x, 1)
        assert kernel.not_(kernel.not_(e)) is e
        assert kernel.not_(TRUE) is FALSE
        assert kernel.not_(FALSE) is TRUE

    def test_row_equality(self, kernel):
        condition = kernel.row_equality((x, 1), (2, 1))
        assert condition is kernel.eq(x, 2)
        with pytest.raises(ValueError):
            kernel.row_equality((x,), (1, 2))


class TestUnsatisfiability:
    def test_conflicting_constants_collapse_to_false(self, kernel):
        assert kernel.conjunction((kernel.eq(x, 1), kernel.eq(x, 2))) is FALSE

    def test_transitive_conflict(self, kernel):
        assert (
            kernel.conjunction((kernel.eq(x, y), kernel.eq(y, 1), kernel.eq(x, 2))) is FALSE
        )

    def test_disequality_in_same_class(self, kernel):
        neq = kernel.intern(Neq(x, y))
        assert kernel.conjunction((kernel.eq(x, z), kernel.eq(z, y), neq)) is FALSE

    def test_satisfiable_conjunction_survives(self, kernel):
        condition = kernel.conjunction((kernel.eq(x, y), kernel.eq(y, 1)))
        assert condition is not FALSE
        assert condition.evaluate(Valuation({x: 1, y: 1}))
        assert not condition.evaluate(Valuation({x: 2, y: 1}))

    def test_atoms_under_or_are_not_consulted(self, kernel):
        # x=1 ∧ (x=2 ∨ y=1) is satisfiable; the union-find must ignore the Or.
        condition = kernel.conjunction(
            (kernel.eq(x, 1), kernel.or_(kernel.eq(x, 2), kernel.eq(y, 1)))
        )
        assert condition is not FALSE
        assert condition.evaluate(Valuation({x: 1, y: 1}))


class TestCachedNulls:
    def test_nulls_match_seed_and_are_cached(self, kernel):
        condition = kernel.conjunction(
            (kernel.eq(x, 1), kernel.or_(kernel.eq(y, 2), kernel.intern(Neq(z, x))))
        )
        assert kernel_nulls(condition) == condition.nulls() == {x, y, z}
        assert kernel_nulls(condition) is kernel_nulls(condition)

    def test_constant_conditions_have_no_nulls(self):
        assert kernel_nulls(TRUE) == frozenset()
        assert kernel_nulls(FALSE) == frozenset()


class TestEpochEviction:
    """The epoch-based eviction policy behind PlanCache.clear()."""

    def test_touched_conditions_survive_eviction(self, kernel):
        hot = kernel.eq(x, 1)
        verdict = kernel.evict()
        assert verdict["kept"] >= 1 and verdict["evicted"] == 0
        assert kernel.eq(x, 1) is hot

    def test_untouched_conditions_evicted_after_one_full_epoch(self, kernel):
        cold = kernel.eq(x, 1)
        kernel.evict()  # cold was touched in the ending epoch: kept
        kernel.evict()  # a full epoch with no touch: evicted
        assert kernel.stats()["interned"] == 0
        fresh = kernel.eq(x, 1)
        assert fresh is not cold
        # the survivor lost its canonical mark: composing it re-interns
        assert kernel.intern(cold) is fresh

    def test_retained_composites_keep_their_operands(self, kernel):
        a, b = kernel.eq(x, 1), kernel.eq(y, 2)
        both = kernel.and_(a, b)
        kernel.evict()
        # New epoch: touch only the conjunction, never the atoms directly.
        assert kernel.conjunction((a, b)) is both
        kernel.evict()
        # The operand closure of the touched conjunction survives with it,
        # so flattening through the retained node still dedups by identity.
        assert kernel.eq(x, 1) is a
        assert kernel.eq(y, 2) is b
        assert kernel.and_(a, b) is both

    def test_memo_entries_involving_evicted_nodes_are_dropped(self, kernel):
        a, b = kernel.eq(x, 1), kernel.eq(y, 2)
        kernel.or_(a, b)
        assert kernel.stats()["or_memo"] == 1
        kernel.evict()
        kernel.eq(x, 1)  # touch one atom; the disjunction stays cold
        kernel.evict()
        assert kernel.stats()["or_memo"] == 0

    def test_eviction_preserves_semantics_of_survivor_composition(self, kernel):
        survivor = kernel.conjunction((kernel.eq(x, y), kernel.eq(y, 1)))
        kernel.evict()
        kernel.evict()
        # The evicted node still evaluates correctly and re-interns into
        # a semantically identical canonical condition.
        rebuilt = kernel.intern(survivor)
        for assignment in ({x: 1, y: 1}, {x: 2, y: 1}):
            valuation = Valuation(assignment)
            assert rebuilt.evaluate(valuation) == survivor.evaluate(valuation)
