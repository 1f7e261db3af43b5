"""The Imieliński–Lipski algebra on conditional tables.

Conditional tables form a *strong representation system* for full
relational algebra under the closed-world semantics (paper, Section 2):
for every RA query ``Q`` and c-table database ``T`` one can compute a
c-table ``Q̂(T)`` with ``[[Q̂(T)]]_cwa = Q([[T]]_cwa)``.  This module
implements that algebra:

* selection adds the selection condition (instantiated with the tuple's
  values, which may be nulls) to each local condition;
* projection and product/join behave positionally, conjoining conditions;
* union concatenates;
* intersection and difference introduce conditions quantifying over the
  rows of the other table (``t ∈ T₁ − T₂`` holds when ``t``'s condition
  holds and no row of ``T₂`` both holds and equals ``t``);
* division is rewritten into projection, product and difference.

The experiments validate the construction against explicit possible-world
enumeration (``[[Q̂(T)]]_cwa`` vs ``{Q(D') | D' ∈ [[T]]_cwa}``) and the
benchmarks show the complexity gap between the two.
"""

from __future__ import annotations

from heapq import merge as _heapq_merge
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..datamodel import (
    Condition,
    ConditionalRow,
    ConditionalTable,
    Database,
    Eq,
    FalseCondition,
    Not,
    TRUE,
    Valuation,
    conjunction,
    disjunction,
    row_equality,
)
from ..datamodel.schema import DatabaseSchema, RelationSchema
from ..datamodel.values import Null, is_null
from .ast import (
    ActiveDomain,
    ConstantRelation,
    Delta,
    Difference,
    Division,
    Intersection,
    NaturalJoin,
    Product,
    Projection,
    RAExpression,
    RelationRef,
    Rename,
    Selection,
    Union_,
)
from .predicates import Attr, Comparison, Const, PAnd, PNot, POr, Predicate, PTrue


class CTableDatabase:
    """A database whose relations are conditional tables.

    Lifting a naive database gives each tuple the condition ``true``; the
    interesting c-tables are produced by the algebra itself or built by
    hand (e.g. the paper's disjunctive example).
    """

    def __init__(self, tables: Iterable[ConditionalTable]) -> None:
        self._tables: Dict[str, ConditionalTable] = {}
        for table in tables:
            if table.name in self._tables:
                raise ValueError(f"duplicate conditional table {table.name!r}")
            self._tables[table.name] = table
        self._schema = DatabaseSchema(table.schema for table in self._tables.values())

    @classmethod
    def from_database(cls, database: Database) -> "CTableDatabase":
        """Lift every relation of a naive database to an all-true c-table.

        Both are immutable, so the lift is computed once per ``database``
        instance (kept on its :meth:`~repro.datamodel.Database.analysis_cache`)
        and every call returns that same object.
        """
        cache = database.analysis_cache()
        lifted = cache.get("ctable.lifted")
        if lifted is None:
            lifted = cache["ctable.lifted"] = cls(
                ConditionalTable.from_relation(rel) for rel in database.relations()
            )
        return lifted

    @property
    def schema(self) -> DatabaseSchema:
        """The relational schema of the underlying tables."""
        return self._schema

    def table(self, name: str) -> ConditionalTable:
        """The conditional table assigned to ``name``."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"unknown conditional table {name!r}") from None

    def __getitem__(self, name: str) -> ConditionalTable:
        return self.table(name)

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[ConditionalTable]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def nulls(self) -> Set[Null]:
        """All nulls mentioned by any table (tuples and conditions)."""
        result: Set[Null] = set()
        for table in self._tables.values():
            result |= table.nulls()
        return result

    def constants(self) -> Set[Any]:
        """All constants mentioned in tuples."""
        result: Set[Any] = set()
        for table in self._tables.values():
            result |= table.constants()
        return result

    def active_domain(self) -> Set[Any]:
        """Constants and nulls occurring in tuples."""
        result: Set[Any] = set(self.constants())
        for table in self._tables.values():
            for row in table:
                result.update(v for v in row.values if is_null(v))
        return result

    def global_condition(self) -> Condition:
        """The conjunction of all tables' global conditions."""
        return conjunction(table.global_condition for table in self._tables.values())

    def possible_worlds(self, domain: Sequence[Any]) -> Set[Tuple[Tuple[str, frozenset], ...]]:
        """All worlds of the whole database, as sorted tuples of (name, rows)."""
        from ..semantics.certain import space_over
        from ..semantics.worlds import valuation_worlds

        global_cond = self.global_condition()
        tables = sorted(self._tables.items())

        def world(valuation: Valuation) -> Optional[Tuple[Tuple[str, frozenset], ...]]:
            if not global_cond.evaluate(valuation):
                return None
            # The global condition holds, so no table's instantiation is None.
            return tuple((name, table.instantiate(valuation).rows) for name, table in tables)

        return space_over(lambda world: world, valuation_worlds(self.nulls(), domain, world))


def _merge_sorted(a: Sequence[int], b: Sequence[int]) -> Iterable[int]:
    """Lazily merge two ascending index sequences.

    Replaces the per-probe ``sorted(list_a + list_b)`` rebuild in the join
    and membership hot paths: both inputs are built in ascending position
    order, so a linear merge preserves the nested-loop output order without
    allocating and re-sorting a fresh list per row.
    """
    if not a:
        return b
    if not b:
        return a
    return _heapq_merge(a, b)


# ----------------------------------------------------------------------
# Predicate → condition translation
# ----------------------------------------------------------------------
def _term_value(term: Any, row: Sequence[Any], schema: RelationSchema) -> Any:
    if isinstance(term, Attr):
        return row[term.resolve(schema)]
    if isinstance(term, Const):
        return term.value
    return term


def predicate_condition(predicate: Predicate, row: Sequence[Any], schema: RelationSchema) -> Condition:
    """The condition expressing that ``predicate`` holds on the (possibly null) ``row``."""
    if isinstance(predicate, PTrue):
        return TRUE
    if isinstance(predicate, Comparison):
        left = _term_value(predicate.left, row, schema)
        right = _term_value(predicate.right, row, schema)
        if predicate.op == "=":
            return Eq(left, right).simplify()
        if predicate.op == "!=":
            return Not(Eq(left, right)).simplify()
        if is_null(left) or is_null(right):
            raise ValueError(
                f"order comparison {predicate.op!r} on nulls is not expressible as a "
                "c-table condition (conditions are equality-based)"
            )
        from ..datamodel.conditional import FALSE

        return TRUE if predicate.holds(row, schema) else FALSE
    if isinstance(predicate, PAnd):
        return conjunction(predicate_condition(op, row, schema) for op in predicate.operands)
    if isinstance(predicate, POr):
        return disjunction(predicate_condition(op, row, schema) for op in predicate.operands)
    if isinstance(predicate, PNot):
        return Not(predicate_condition(predicate.operand, row, schema)).simplify()
    raise TypeError(f"unsupported predicate {predicate!r}")


# ----------------------------------------------------------------------
# The algebra
# ----------------------------------------------------------------------
def ctable_evaluate(expression: RAExpression, database: CTableDatabase) -> ConditionalTable:
    """Evaluate an RA expression over a c-table database, producing a c-table.

    The result's global condition is the conjunction of the global
    conditions of the base tables, so ``result.possible_worlds(domain)``
    ranges over exactly the worlds admitted by the input database.

    This is the tree-walking algebra, kept as the differential-testing
    oracle.  The planned path (:func:`repro.engine.execute_ctable`, or
    :meth:`repro.session.Session.evaluate_ctable`) represents the same set
    of possible worlds, possibly with syntactically different conditions
    and row order.
    """
    result = _evaluate(expression, database, database.schema)
    return result.with_global(database.global_condition()).simplified()


def _evaluate(
    expression: RAExpression, database: CTableDatabase, schema: DatabaseSchema
) -> ConditionalTable:
    if isinstance(expression, RelationRef):
        return database.table(expression.name)
    if isinstance(expression, ConstantRelation):
        return ConditionalTable.from_relation(expression.relation)
    if isinstance(expression, Delta):
        out_schema = expression.output_schema(schema)
        rows = [ConditionalRow((v, v), TRUE) for v in sorted(database.active_domain(), key=str)]
        return ConditionalTable(out_schema, rows)
    if isinstance(expression, ActiveDomain):
        out_schema = expression.output_schema(schema)
        rows = [ConditionalRow((v,), TRUE) for v in sorted(database.active_domain(), key=str)]
        return ConditionalTable(out_schema, rows)
    if isinstance(expression, Selection):
        return _selection(expression, database, schema)
    if isinstance(expression, Projection):
        return _projection(expression, database, schema)
    if isinstance(expression, Rename):
        child = _evaluate(expression.child, database, schema)
        return ConditionalTable(expression.output_schema(schema), child.rows, child.global_condition)
    if isinstance(expression, Product):
        return _product(expression, database, schema)
    if isinstance(expression, NaturalJoin):
        return _natural_join(expression, database, schema)
    if isinstance(expression, Union_):
        return _union(expression, database, schema)
    if isinstance(expression, Intersection):
        return _intersection(expression, database, schema)
    if isinstance(expression, Difference):
        return _difference(expression, database, schema)
    if isinstance(expression, Division):
        return _division(expression, database, schema)
    raise TypeError(f"unsupported RA node for c-table evaluation: {expression!r}")


def _selection(expression: Selection, database: CTableDatabase, schema: DatabaseSchema) -> ConditionalTable:
    child = _evaluate(expression.child, database, schema)
    out_schema = expression.output_schema(schema)
    rows: List[ConditionalRow] = []
    for row in child:
        extra = predicate_condition(expression.predicate, row.values, child.schema)
        condition = conjunction((row.condition, extra))
        if isinstance(condition, FalseCondition):
            continue
        rows.append(ConditionalRow(row.values, condition))
    return ConditionalTable(out_schema, rows, child.global_condition)


def _projection(expression: Projection, database: CTableDatabase, schema: DatabaseSchema) -> ConditionalTable:
    child = _evaluate(expression.child, database, schema)
    positions = [child.schema.index_of(a) for a in expression.attributes]
    out_schema = expression.output_schema(schema)
    rows = [
        ConditionalRow(tuple(row.values[p] for p in positions), row.condition) for row in child
    ]
    return ConditionalTable(out_schema, rows, child.global_condition)


def _product(expression: Product, database: CTableDatabase, schema: DatabaseSchema) -> ConditionalTable:
    left = _evaluate(expression.left, database, schema)
    right = _evaluate(expression.right, database, schema)
    out_schema = expression.output_schema(schema)
    rows = []
    for l_row in left:
        for r_row in right:
            condition = conjunction((l_row.condition, r_row.condition))
            if isinstance(condition, FalseCondition):
                continue
            rows.append(ConditionalRow(l_row.values + r_row.values, condition))
    global_condition = conjunction((left.global_condition, right.global_condition))
    return ConditionalTable(out_schema, rows, global_condition)


def _natural_join(
    expression: NaturalJoin, database: CTableDatabase, schema: DatabaseSchema
) -> ConditionalTable:
    left = _evaluate(expression.left, database, schema)
    right = _evaluate(expression.right, database, schema)
    left_schema = expression.left.output_schema(schema)
    right_schema = expression.right.output_schema(schema)
    shared = [name for name in right_schema.attributes if name in left_schema.attributes]
    join_pairs = [(left_schema.index_of(n), right_schema.index_of(n)) for n in shared]
    right_keep = [i for i, name in enumerate(right_schema.attributes) if name not in left_schema.attributes]
    out_schema = expression.output_schema(schema)

    # Hash-partition the right rows by their join-key values.  A pair whose
    # keys are all constants but differ can only produce an equality
    # condition that simplifies to false, so it is skipped wholesale; only
    # rows with a null in some join column must be paired with everything
    # (the null may still equal any value under some valuation).  Row order
    # of the output matches the nested-loop formulation.
    keyed: Dict[Tuple[Any, ...], List[int]] = {}
    null_key_indices: List[int] = []
    right_rows = list(right)
    for position, r_row in enumerate(right_rows):
        key = tuple(r_row.values[j] for _, j in join_pairs)
        if any(is_null(v) for v in key):
            null_key_indices.append(position)
        else:
            keyed.setdefault(key, []).append(position)

    rows = []
    for l_row in left:
        l_key = tuple(l_row.values[i] for i, _ in join_pairs)
        if join_pairs and not any(is_null(v) for v in l_key):
            candidates = _merge_sorted(keyed.get(l_key, ()), null_key_indices)
        else:
            candidates = range(len(right_rows))
        for position in candidates:
            r_row = right_rows[position]
            equalities = conjunction(
                Eq(l_row.values[i], r_row.values[j]) for i, j in join_pairs
            )
            condition = conjunction((l_row.condition, r_row.condition, equalities))
            if isinstance(condition, FalseCondition):
                continue
            values = l_row.values + tuple(r_row.values[i] for i in right_keep)
            rows.append(ConditionalRow(values, condition))
    global_condition = conjunction((left.global_condition, right.global_condition))
    return ConditionalTable(out_schema, rows, global_condition)


def _union(expression: Union_, database: CTableDatabase, schema: DatabaseSchema) -> ConditionalTable:
    left = _evaluate(expression.left, database, schema)
    right = _evaluate(expression.right, database, schema)
    out_schema = expression.output_schema(schema)
    rows = list(left.rows) + [ConditionalRow(row.values, row.condition) for row in right]
    global_condition = conjunction((left.global_condition, right.global_condition))
    return ConditionalTable(out_schema, rows, global_condition)


def _membership_condition(values: Tuple[Any, ...], table: ConditionalTable) -> Condition:
    """The condition "``values`` is a tuple of ``table``" (some row holds and equals it)."""
    return disjunction(
        conjunction((row.condition, row_equality(values, row.values))) for row in table
    )


class _MembershipIndex:
    """Hash index over a c-table for building membership conditions.

    Rows whose values are all constants are keyed by their value tuple; a
    constant probe tuple can only equal those rows that match exactly plus
    the rows mentioning a null somewhere (which may coincide with anything
    under some valuation).  Every other pairing would contribute a
    ``false`` disjunct, so skipping it leaves the condition unchanged.
    """

    __slots__ = ("rows", "keyed", "null_rows")

    def __init__(self, table: ConditionalTable) -> None:
        self.rows: List[ConditionalRow] = list(table)
        self.keyed: Dict[Tuple[Any, ...], List[int]] = {}
        self.null_rows: List[int] = []
        for position, row in enumerate(self.rows):
            if any(is_null(v) for v in row.values):
                self.null_rows.append(position)
            else:
                self.keyed.setdefault(row.values, []).append(position)

    def condition(self, values: Tuple[Any, ...]) -> Condition:
        """Same condition as :func:`_membership_condition` against the table."""
        if any(is_null(v) for v in values):
            relevant: Iterable[int] = range(len(self.rows))
        else:
            relevant = _merge_sorted(self.keyed.get(tuple(values), ()), self.null_rows)
        return disjunction(
            conjunction((self.rows[i].condition, row_equality(values, self.rows[i].values)))
            for i in relevant
        )


def _intersection(
    expression: Intersection, database: CTableDatabase, schema: DatabaseSchema
) -> ConditionalTable:
    left = _evaluate(expression.left, database, schema)
    right = _evaluate(expression.right, database, schema)
    out_schema = expression.output_schema(schema)
    membership = _MembershipIndex(right)
    rows = []
    for row in left:
        condition = conjunction((row.condition, membership.condition(row.values)))
        if isinstance(condition, FalseCondition):
            continue
        rows.append(ConditionalRow(row.values, condition))
    global_condition = conjunction((left.global_condition, right.global_condition))
    return ConditionalTable(out_schema, rows, global_condition)


def _difference(
    expression: Difference, database: CTableDatabase, schema: DatabaseSchema
) -> ConditionalTable:
    left = _evaluate(expression.left, database, schema)
    right = _evaluate(expression.right, database, schema)
    out_schema = expression.output_schema(schema)
    membership = _MembershipIndex(right)
    rows = []
    for row in left:
        not_in_right = Not(membership.condition(row.values)).simplify()
        condition = conjunction((row.condition, not_in_right))
        if isinstance(condition, FalseCondition):
            continue
        rows.append(ConditionalRow(row.values, condition))
    global_condition = conjunction((left.global_condition, right.global_condition))
    return ConditionalTable(out_schema, rows, global_condition)


def _division(expression: Division, database: CTableDatabase, schema: DatabaseSchema) -> ConditionalTable:
    from .ast import expand_division

    rewritten = expand_division(expression, schema)
    result = _evaluate(rewritten, database, schema)
    return ConditionalTable(expression.output_schema(schema), result.rows, result.global_condition)
