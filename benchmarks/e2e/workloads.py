"""The five workloads: seeded inputs, set-up, one round, answer checks.

Every workload drives the library through its public API only
(``repro.connect``, ``Session.query``, ``Query.*``, ``repro.serve.Server``,
``repro.ProbabilityModel``).  Inputs are generated here rather than by
``repro.workloads`` so a library change cannot reshape them; the seed
changes the data, the model supports and the ad-hoc constant stream,
never the sizes.  Expected answers are computed independently, with
plain set arithmetic over the generated rows, and every answer of every
round is checked against them outside the timed region.

A *round* is one pass over a workload's fixed request mix; its latency
is what ``p50_ms``/``p95_ms`` summarize.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
import traceback
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import repro
import repro.algebra as algebra
from repro import Database, Null, Relation
from repro.serve import Server

Row = Tuple[Any, ...]

#: The unpaid-orders query of Section 1 (e01): orders without a payment.
DIFF = "diff(project[o_id](Orders), rename[Paid(o_id)](project[ord](Pay)))"
#: A UCQ join: paid orders with their amounts (naive evaluation is exact).
UCQ = "project[o_id, amount](join(Orders, rename[P(p_id, o_id, amount)](Pay)))"
#: The order ids, streamed through a cursor by ``sqlite_rw``.
ORDER_IDS = "project[o_id](Orders)"


# ----------------------------------------------------------------------
# Inputs and their expected answers
# ----------------------------------------------------------------------
def orders_payments(
    rng: random.Random,
    num_orders: int,
    num_payments: int,
    null_fraction: float,
    prefix: str = "",
    first_amount: int = 1,
) -> Tuple[List[Row], List[Row]]:
    """Rows of ``Orders(o_id, product)`` and ``Pay(p_id, ord, amount)``.

    The shape of ``repro.workloads.orders_payments``, except that exactly
    ``round(null_fraction * num_payments)`` payments have a null ``ord``,
    so the null count is fixed by the sizes and not by the seed.
    Amounts are distinct.
    """
    products = max(2, num_orders // 2)
    orders = [(f"{prefix}oid{i}", f"pr{rng.randrange(products)}") for i in range(num_orders)]
    null_at = set(rng.sample(range(num_payments), round(null_fraction * num_payments)))
    pay = []
    for i in range(num_payments):
        ref: Any = Null(f"{prefix}pay{i}") if i in null_at else f"{prefix}oid{rng.randrange(num_orders)}"
        pay.append((f"{prefix}pid{i}", ref, 10 * (first_amount + i)))
    return orders, pay


def build_orders(orders: Sequence[Row], pay: Sequence[Row]) -> Database:
    return Database.from_relations(
        [
            Relation.create("Orders", orders, attributes=("o_id", "product")),
            Relation.create("Pay", pay, attributes=("p_id", "ord", "amount")),
        ]
    )


def _constant_refs(pay: Sequence[Row]) -> List[Row]:
    return [row for row in pay if not isinstance(row[1], Null)]


def diff_answer(orders: Sequence[Row], pay: Sequence[Row]) -> FrozenSet[Row]:
    """``answer_object()`` of :data:`DIFF`: a null never equals an order id."""
    paid = {ref for _, ref, _ in _constant_refs(pay)}
    return frozenset((o,) for o, _ in orders if o not in paid)


def ucq_answer(orders: Sequence[Row], pay: Sequence[Row]) -> FrozenSet[Row]:
    """``certain()`` of :data:`UCQ`: the join rows free of nulls."""
    ids = {o for o, _ in orders}
    return frozenset((ref, amount) for _, ref, amount in _constant_refs(pay) if ref in ids)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class Tally:
    """The requests of one round: count, failures, summed client latency."""

    __slots__ = ("attempted", "failed", "seconds", "first_error")

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.seconds = 0.0
        self.first_error: Optional[str] = None

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = reason


def request(tally: Tally, call: Callable[[], Any], check: Callable[[Any], bool], what: str) -> Any:
    """Time ``call()``; count it failed if it raises or ``check`` rejects it.

    The check runs after the clock stops.  Returns the result, or
    ``None`` when the call raised.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        result = call()
    except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
        tally.seconds += time.perf_counter() - start
        tally.fail(f"{what} raised:\n{traceback.format_exc()}")
        return None
    tally.seconds += time.perf_counter() - start
    if not check(result):
        tally.fail(f"{what} returned a wrong answer")
    return result


def rows_equal(expected: FrozenSet[Row]) -> Callable[[Any], bool]:
    return lambda relation: relation.rows == expected


def confidences_equal(expected: Dict[Row, float]) -> Callable[[Any], bool]:
    """A ranked ``confidence()`` list holds exactly ``expected``, ranked."""

    def check(ranked: List[Tuple[Row, Any]]) -> bool:
        if len(ranked) != len(expected):
            return False
        for index, (row, p) in enumerate(ranked):
            want = expected.get(row)
            if want is None or not math.isclose(float(p), want, rel_tol=1e-9, abs_tol=1e-12):
                return False
            if index and float(p) > float(ranked[index - 1][1]):
                return False
        return True

    return check


class State:
    """One set-up: the session (or server) plus per-set-up bookkeeping.

    ``parsed`` parses a query text on its first use in this set-up, so
    the cold round pays parsing and later rounds reuse the expression.
    """

    def __init__(self, session: Any) -> None:
        self.session = session
        self._parsed: Dict[str, Any] = {}

    def parsed(self, text: str) -> Any:
        expression = self._parsed.get(text)
        if expression is None:
            expression = self._parsed[text] = algebra.parse_ra(text)
        return expression


class Workload:
    """Base class: ``setup`` builds a :class:`State`, ``run_round`` plays
    one round into a :class:`Tally` and returns the round latency.

    Why each workload exists is stated in ``BENCHMARK.json`` and README.md.
    """

    def setup(self) -> State:
        raise NotImplementedError

    def run_round(self, state: State, tally: Tally, span: Callable[..., Any]) -> float:
        raise NotImplementedError

    def sessions(self, state: State) -> List[Any]:
        return [state.session]

    def close(self, state: State) -> None:
        for session in self.sessions(state):
            session.close()


# ----------------------------------------------------------------------
# tiny_warm and bulk_1e5: the e01 pair on the plan engine
# ----------------------------------------------------------------------
class OrdersPair(Workload):
    """``repeat`` × [DIFF ``answer_object()`` + UCQ ``certain()``], each on a
    fresh ``session.query(expression)`` handle, plan engine, one client."""

    def __init__(self, seed: int, num_orders: int, num_payments: int, null_fraction: float,
                 repeat: int) -> None:
        self.repeat = repeat
        self.orders, self.pay = orders_payments(random.Random(seed), num_orders, num_payments, null_fraction)
        self.expected_diff = diff_answer(self.orders, self.pay)
        self.expected_ucq = ucq_answer(self.orders, self.pay)

    def setup(self) -> State:
        return State(repro.connect(build_orders(self.orders, self.pay)))

    def run_round(self, state: State, tally: Tally, span: Callable[..., Any]) -> float:
        session = state.session
        check_diff = rows_equal(self.expected_diff)
        check_ucq = rows_equal(self.expected_ucq)
        for _ in range(self.repeat):
            request(tally, lambda: session.query(state.parsed(DIFF)).answer_object(), check_diff, "e01 answer_object()")
            request(tally, lambda: session.query(state.parsed(UCQ)).certain(), check_ucq, "UCQ certain()")
        return tally.seconds


def tiny_warm(seed: int) -> OrdersPair:
    """The e01 size; 512 pairs make a ~30 ms round, long enough that
    sub-second host jitter averages out within it."""
    return OrdersPair(seed, num_orders=40, num_payments=8, null_fraction=0.4, repeat=512)


def bulk_1e5(seed: int) -> OrdersPair:
    """Named for 10⁵ Orders, sized to 3·10⁴: a 10⁵ round takes ~250 ms,
    and a run must fit 200 rounds into its measured seconds."""
    return OrdersPair(seed, num_orders=30_000, num_payments=3_000, null_fraction=0.1, repeat=1)


# ----------------------------------------------------------------------
# sqlite_rw: reads, a cursor stream and periodic new versions on SQLite
# ----------------------------------------------------------------------
class SqliteReadWrite(Workload):
    """``engine="sqlite"``, one client.  A round: [every 5th round, a new
    version via ``add_facts``] + DIFF ``answer_object()`` + UCQ
    ``certain()`` + a full ``cursor()`` stream of the order ids, all on
    the latest version."""

    ORDERS, PAYMENTS, NULL_FRACTION = 8_000, 1_600, 0.1
    DELTA_ORDERS, DELTA_PAYMENTS = 200, 40
    VERSIONS = 8
    WRITE_EVERY = 5

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.orders, self.pay = orders_payments(rng, self.ORDERS, self.PAYMENTS, self.NULL_FRACTION)
        # Version k is the base plus delta k (built from the base, so the
        # size stays fixed however many rounds run); expected[0] is the base.
        self.deltas: List[List[Tuple[str, Row]]] = []
        self.expected = [self._answers(self.orders, self.pay)]
        for k in range(self.VERSIONS):
            orders, pay = orders_payments(
                rng, self.DELTA_ORDERS, self.DELTA_PAYMENTS, self.NULL_FRACTION,
                prefix=f"v{k}_", first_amount=self.PAYMENTS + 1,
            )
            self.deltas.append([("Orders", row) for row in orders] + [("Pay", row) for row in pay])
            self.expected.append(self._answers(self.orders + orders, self.pay + pay))
        self.version_size = len(self.orders) + len(self.pay) + len(self.deltas[0])

    @staticmethod
    def _answers(orders: List[Row], pay: List[Row]) -> Tuple[FrozenSet[Row], FrozenSet[Row], FrozenSet[Row]]:
        return diff_answer(orders, pay), ucq_answer(orders, pay), frozenset((o,) for o, _ in orders)

    def setup(self) -> State:
        base = build_orders(self.orders, self.pay)
        state = State(repro.connect(base, engine="sqlite"))
        state.base = base
        state.database = None  # the session's own database until the first write
        state.answers = self.expected[0]
        state.round = 0
        state.writes = 0
        return state

    def run_round(self, state: State, tally: Tally, span: Callable[..., Any]) -> float:
        session = state.session
        if state.round % self.WRITE_EVERY == self.WRITE_EVERY - 1:
            k = state.writes % self.VERSIONS
            version = request(
                tally, lambda: state.base.add_facts(self.deltas[k]),
                lambda database: len(database) == self.version_size, "add_facts()",
            )
            state.writes += 1
            if version is not None:
                state.database = version
                state.answers = self.expected[k + 1]
        database = state.database
        diff, ucq, ids = state.answers
        request(tally, lambda: session.query(state.parsed(DIFF), database=database).answer_object(),
                rows_equal(diff), "e01 answer_object()")
        request(tally, lambda: session.query(state.parsed(UCQ), database=database).certain(),
                rows_equal(ucq), "UCQ certain()")

        def stream() -> List[Row]:
            rows: List[Row] = []
            with session.query(state.parsed(ORDER_IDS), database=database).cursor(batch_size=1024) as cursor:
                with span("backend.cursor"):
                    for batch in cursor.batches():
                        rows.extend(batch)
            return rows

        request(tally, stream, lambda rows: len(rows) == len(ids) and set(rows) == ids, "cursor()")
        state.round += 1
        return tally.seconds


# ----------------------------------------------------------------------
# worlds: full world enumeration plus pc-table confidence
# ----------------------------------------------------------------------
#: Certain answers of this difference need every CWA world (not UCQ/Pos∀G).
WORLDS_QUERY = "diff(project[a](R), project[a](S))"
#: One ad-hoc confidence query; the product constant comes from the stream.
ADHOC = "project[o_id](select[product = '{product}'](join(Orders, rename[P(p_id, o_id, amount)](Pay))))"
#: Support weights of each null's candidate orders (sum to 1).
WEIGHTS = (0.4, 0.3, 0.2, 0.1)


def worlds_instance(rng: random.Random, nulls: int = 3) -> Tuple[List[Row], List[Row]]:
    """``R(a, b)`` with ``nulls`` null rows ``(n_k, b1)``, and a complete ``S(a, b)``.

    ``R`` is fixed and holds every constant (a0..a2, b0, b1); the seed
    picks ``S`` among those constants.  So the enumeration domain (5
    constants plus ``nulls + 1`` fresh ones), the valuation count and the
    distinct-world count depend only on ``nulls``: 729 valuations and 64
    distinct worlds for 3 nulls.  ``a0`` never occurs in ``S``, so the
    certain answer is never empty and the enumeration never stops early.
    """
    r: List[Row] = [("a0", "b0"), ("a1", "b0"), ("a2", "b0"), ("a0", "b1"), ("a1", "b1")]
    r += [(Null(f"n{k}"), "b1") for k in range(nulls)]
    s = rng.sample([(f"a{i}", f"b{j}") for i in (1, 2) for j in (0, 1)], 2)
    return r, s


def worlds_certain(r: List[Row], s: List[Row]) -> FrozenSet[Row]:
    """Certain answers of :data:`WORLDS_QUERY` when only ``R`` has nulls
    (and only in ``a``): constant ``R.a`` values absent from ``S.a``."""
    in_s = {a for a, _ in s}
    return frozenset((a,) for a, _ in r if not isinstance(a, Null) and a not in in_s)


class Worlds(Workload):
    """A round: one ``certain()`` enumerating every world of
    :func:`worlds_instance`, then four ad-hoc ``confidence()`` queries
    (constants from a seeded stream, parsed per request) and one UCQ join
    ``confidence()`` on a pc-table session."""

    ORDERS, PAYMENTS, NULL_FRACTION = 100, 30, 0.3
    ADHOC_PER_ROUND = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.r, self.s = worlds_instance(rng)
        self.expected_certain = worlds_certain(self.r, self.s)
        self.orders, self.pay = orders_payments(rng, self.ORDERS, self.PAYMENTS, self.NULL_FRACTION)
        ids = [o for o, _ in self.orders]
        self.supports: Dict[Null, Dict[str, float]] = {}
        for _, ref, _ in self.pay:
            if isinstance(ref, Null):
                self.supports[ref] = dict(zip(rng.sample(ids, len(WEIGHTS)), WEIGHTS))
        self.products = sorted({product for _, product in self.orders})
        self.expected_join = self._join_confidence()
        self.expected_adhoc = {product: self._adhoc_confidence(product) for product in self.products}

    def _join_confidence(self) -> Dict[Row, float]:
        # Amounts are distinct, so every answer has exactly one derivation.
        expected: Dict[Row, float] = {}
        for _, ref, amount in self.pay:
            if isinstance(ref, Null):
                for order, p in self.supports[ref].items():
                    expected[(order, amount)] = p
            else:
                expected[(ref, amount)] = 1.0
        return expected

    def _adhoc_confidence(self, product: str) -> Dict[Row, float]:
        # P(some payment references o) with independent nulls.
        paid = {ref for _, ref, _ in _constant_refs(self.pay)}
        expected: Dict[Row, float] = {}
        for order, prod in self.orders:
            if prod != product:
                continue
            if order in paid:
                expected[(order,)] = 1.0
                continue
            miss = 1.0
            for support in self.supports.values():
                miss *= 1.0 - support.get(order, 0.0)
            if miss < 1.0:
                expected[(order,)] = 1.0 - miss
        return expected

    def setup(self) -> State:
        worlds_db = Database.from_relations(
            [
                Relation.create("R", self.r, attributes=("a", "b")),
                Relation.create("S", self.s, attributes=("a", "b")),
            ]
        )
        state = State(repro.connect(worlds_db))
        model = repro.ProbabilityModel(independent=self.supports)
        state.prob = repro.connect(build_orders(self.orders, self.pay), semantics="prob", model=model)
        state.constants = random.Random(self.seed + 1)
        return state

    def sessions(self, state: State) -> List[Any]:
        return [state.session, state.prob]

    def run_round(self, state: State, tally: Tally, span: Callable[..., Any]) -> float:
        request(tally, lambda: state.session.query(state.parsed(WORLDS_QUERY)).certain(),
                rows_equal(self.expected_certain), "enumeration certain()")
        prob = state.prob
        for _ in range(self.ADHOC_PER_ROUND):
            product = state.constants.choice(self.products)
            text = ADHOC.format(product=product)
            request(tally, lambda: prob.query(algebra.parse_ra(text)).confidence(),
                    confidences_equal(self.expected_adhoc[product]), "ad-hoc confidence()")
        request(tally, lambda: prob.query(state.parsed(UCQ)).confidence(),
                confidences_equal(self.expected_join), "join confidence()")
        return tally.seconds


# ----------------------------------------------------------------------
# serve: two async closed-loop clients over a frozen Server
# ----------------------------------------------------------------------
#: The served (and warmed) query set: UCQs only — ``Server(warm=)`` runs
#: ``certain()``, which would enumerate worlds for a difference.
SERVED = (
    UCQ,
    "project[o_id](join(Orders, rename[P(p_id, o_id, amount)](Pay)))",
    "project[product](join(Orders, rename[P(p_id, o_id, amount)](Pay)))",
    "project[p_id, product](join(Orders, rename[P(p_id, o_id, amount)](Pay)))",
    "project[o_id](select[product = 'pr1'](Orders))",
    "project[o_id](select[product = 'pr2'](join(Orders, rename[P(p_id, o_id, amount)](Pay))))",
    "union(project[o_id](Orders), rename[X(o_id)](project[ord](Pay)))",
    "project[ord](Pay)",
)


def served_answers(orders: Sequence[Row], pay: Sequence[Row]) -> List[FrozenSet[Row]]:
    """The certain answers of :data:`SERVED`, in order."""
    product = dict(orders)
    joined = [(pid, ref, amount) for pid, ref, amount in _constant_refs(pay) if ref in product]
    return [
        frozenset((ref, amount) for _, ref, amount in joined),
        frozenset((ref,) for _, ref, _ in joined),
        frozenset((product[ref],) for _, ref, _ in joined),
        frozenset((pid, product[ref]) for pid, ref, _ in joined),
        frozenset((o,) for o, p in orders if p == "pr1"),
        frozenset((ref,) for _, ref, _ in joined if product[ref] == "pr2"),
        frozenset((o,) for o, _ in orders) | frozenset((ref,) for _, ref, _ in _constant_refs(pay)),
        frozenset((ref,) for _, ref, _ in _constant_refs(pay)),
    ]


class Serve(Workload):
    """Two async closed-loop clients over ``Server(pool_size=2, backends=1)``
    with its default engine; a round is each client issuing ``certain()``
    once per warmed query, and its latency is the round's wall time."""

    ORDERS, PAYMENTS, NULL_FRACTION = 1_000, 200, 0.1
    CLIENTS = 2

    def __init__(self, seed: int) -> None:
        self.orders, self.pay = orders_payments(random.Random(seed), self.ORDERS, self.PAYMENTS, self.NULL_FRACTION)
        self.expected = served_answers(self.orders, self.pay)

    def setup(self) -> State:
        queries = [algebra.parse_ra(text) for text in SERVED]
        server = Server(build_orders(self.orders, self.pay), pool_size=2, backends=1, warm=queries)
        state = State(server)
        state.queries = queries
        state.loop = asyncio.new_event_loop()
        return state

    def sessions(self, state: State) -> List[Any]:
        return [state.session.frozen_session]

    def close(self, state: State) -> None:
        state.session.close()
        state.loop.close()

    async def _client(self, state: State, offset: int, tally: Tally, answers: List[Tuple[int, Any]]) -> None:
        server = state.session
        count = len(state.queries)
        for step in range(count):
            index = (offset + step) % count
            tally.attempted += 1
            start = time.perf_counter()
            try:
                answers.append((index, await server.certain(state.queries[index])))
            except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
                tally.fail(f"served certain() raised:\n{traceback.format_exc()}")
            tally.seconds += time.perf_counter() - start

    async def _round(self, state: State, tally: Tally, answers: List[Tuple[int, Any]]) -> None:
        count = len(state.queries)
        await asyncio.gather(*(self._client(state, client * count // self.CLIENTS, tally, answers)
                               for client in range(self.CLIENTS)))

    def run_round(self, state: State, tally: Tally, span: Callable[..., Any]) -> float:
        answers: List[Tuple[int, Any]] = []
        start = time.perf_counter()
        state.loop.run_until_complete(self._round(state, tally, answers))
        latency = time.perf_counter() - start
        for index, result in answers:
            if result.rows != self.expected[index]:
                tally.fail("served certain() returned a wrong answer")
        return latency


#: name -> factory taking the seed; the order is the order of a full run.
WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "tiny_warm": tiny_warm,
    "bulk_1e5": bulk_1e5,
    "sqlite_rw": SqliteReadWrite,
    "worlds": Worlds,
    "serve": Serve,
}
