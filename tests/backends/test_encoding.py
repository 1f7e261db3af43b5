"""Property tests for the marked-null ⇄ sentinel-constant encoding.

The whole correctness story of the SQL backend rests on two properties of
the sentinel codec:

* **round trip** — ``decode(encode(v)) == v`` for every storable value;
* **injectivity up to naive equality** — ``encode(a) == encode(b)`` iff
  ``a == b`` under naive semantics, so SQL ``=`` over encoded text
  coincides exactly with the engine's equality.  In particular sentinels
  never collide with user constants, including adversarial strings that
  *look* like encodings.
"""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

import repro
from repro.algebra import parse_ra
from repro.backends import EncodingError, SentinelCodec, SQLiteBackend
from repro.backends import encoding
from repro.backends.encoding import SQLNullCodec
from repro.datamodel import Database, Null, Relation
from repro.datamodel.values import intern_null, is_null
from repro.engine import PlanCache


def _value_pool():
    """A pool of storable values spanning every encoding branch."""
    values = [
        Null("x"),
        Null("y"),
        Null("n1"),
        Null("sql"),
        Null("i42"),  # a null whose *name* mimics an int encoding
        "",
        "a",
        "alice",
        "nx",  # collides with Null("x")'s sentinel only if tags were broken
        "ny",
        "i1",
        "f0.5",
        "o0",
        "s*",
        "\x00weird",
        0,
        1,
        -7,
        42,
        10**20,
        True,
        False,
        1.0,  # == 1 under Python equality: must encode identically to 1
        0.5,
        -2.25,
        1e300,
        (1, 2),  # opaque constants
        ("a", Null("x")),
        frozenset({1, 2}),
        b"bytes",
        Decimal(1),  # numbers of other types that equal a builtin one
        Decimal("2.5"),
        Fraction(1, 2),
        complex(42, 0),
        Decimal("0.1"),  # equal to no int or float: opaque
        Fraction(1, 10),  # == Decimal("0.1")
        Fraction(1, 3),
        _Label("alice"),  # a str subclass
    ]
    return values


class _Label(str):
    pass


class TestSentinelRoundTrip:
    def test_round_trip_is_identity(self):
        codec = SentinelCodec()
        for value in _value_pool():
            decoded = codec.decode(codec.encode(value))
            assert decoded == value, value
            assert is_null(decoded) == is_null(value)

    def test_round_trip_interns_nulls(self):
        codec = SentinelCodec()
        null = Null("shared")
        first = codec.decode(codec.encode(null))
        second = codec.decode(codec.encode(Null("shared")))
        assert first is second

    def test_randomized_round_trip(self):
        rng = random.Random(7)
        codec = SentinelCodec()
        for _ in range(500):
            kind = rng.randrange(5)
            if kind == 0:
                value = Null("".join(rng.choices("abcxyz0123", k=rng.randrange(1, 8))))
            elif kind == 1:
                value = "".join(rng.choices("nsifo:\x00abc123", k=rng.randrange(0, 10)))
            elif kind == 2:
                value = rng.randrange(-(10**9), 10**9)
            elif kind == 3:
                value = rng.uniform(-1e6, 1e6)
            else:
                value = (rng.randrange(10), "".join(rng.choices("ab", k=3)))
            assert codec.decode(codec.encode(value)) == value

    def test_row_round_trip(self):
        codec = SentinelCodec()
        row = (Null("x"), "nx", 1, 1.5, (1, 2))
        assert codec.decode_row(codec.encode_row(row)) == row


def _random_values(rng, count):
    """Randomized storable values over every encoding branch."""
    values = []
    for _ in range(count):
        kind = rng.randrange(5)
        if kind == 0:
            values.append(Null("".join(rng.choices("abcxyz0123", k=rng.randrange(1, 8)))))
        elif kind == 1:
            values.append("".join(rng.choices("nsifo:\x00abc123", k=rng.randrange(0, 10))))
        elif kind == 2:
            values.append(rng.randrange(-(10**9), 10**9))
        elif kind == 3:
            values.append(rng.uniform(-1e6, 1e6))
        else:
            values.append((rng.randrange(10), "".join(rng.choices("ab", k=3))))
    return values


class TestDecodeMemo:
    def test_memoized_decode_equals_uncached_decode(self):
        codec = SentinelCodec()
        pool = _value_pool() + _random_values(random.Random(11), 500)
        texts = [codec.encode(value) for value in pool]
        for _ in range(2):  # the second pass is served from the memo
            for value, text in zip(pool, texts):
                (memoized,) = codec.decode_row((text,))
                uncached = codec.decode(text)
                assert memoized == uncached == value
                assert type(memoized) is type(uncached)
                if is_null(value):
                    assert memoized is intern_null(Null(value.name))

    def test_numbers_decode_to_one_int(self):
        codec = SentinelCodec()
        row = codec.encode_row((1, 1.0, True))
        for _ in range(2):
            decoded = codec.decode_row(row)
            assert decoded == (1, 1, 1)
            assert all(type(value) is int for value in decoded)

    def test_opaque_tokens_round_trip_through_the_memo(self):
        codec = SentinelCodec()
        row = codec.encode_row(((1, 2), frozenset({3}), b"raw"))
        assert codec.decode_row(row) == ((1, 2), frozenset({3}), b"raw")
        assert codec.decode_row(row) == ((1, 2), frozenset({3}), b"raw")

    @pytest.mark.parametrize("text", [None, b"", "", "x1", "o999"])
    def test_bad_inputs_raise_every_time_and_are_not_cached(self, text):
        codec = SentinelCodec()
        codec.decode_row(("sa", "i1"))
        size = len(codec._memo)
        for _ in range(3):
            with pytest.raises(EncodingError):
                codec.decode_row((text,))
            assert len(codec._memo) == size

    def test_unknown_opaque_token_decodes_once_registered(self):
        codec = SentinelCodec()
        with pytest.raises(EncodingError):
            codec.decode_row(("o0",))
        assert codec.encode((5, 6)) == "o0"
        assert codec.decode_row(("o0",)) == ((5, 6),)

    def test_memo_never_exceeds_its_cap(self):
        codec = SentinelCodec()
        for i in range(encoding.DECODE_MEMO_LIMIT + 1_000):
            assert codec.decode_row(("sv%d" % i,)) == ("v%d" % i,)
            assert len(codec._memo) <= encoding.DECODE_MEMO_LIMIT
        # emptied when full, then refilled from the values decoded since
        assert len(codec._memo) == 1_000

    def test_streaming_more_values_than_the_cap_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(encoding, "DECODE_MEMO_LIMIT", 64)
        database = Database.from_relations(
            [Relation.create("Big", [("k%d" % (i % 7), "v%d" % i) for i in range(500)],
                             attributes=("a", "b"))]
        )
        backend = SQLiteBackend()
        backend.load_database(database)
        rows = []
        for batch in backend.execute_batches(parse_ra("Big"), PlanCache(), batch_size=16):
            rows.extend(batch)
            assert len(backend.codec._memo) <= 64
        assert frozenset(rows) == database.relation("Big").rows
        backend.close()

    def test_frozen_backend_memo_does_not_grow(self):
        database = Database.from_relations(
            [
                Relation.create("R", [("a", 1), ("b", Null("x"))], attributes=("k", "v")),
                Relation.create("S", [("c%d" % i, i) for i in range(50)], attributes=("k", "v")),
            ]
        )
        session = repro.connect(database, engine="sqlite")
        session.freeze(warm=[parse_ra("R")])
        memo = session._engine.sentinel.backend.codec._memo
        size = len(memo)
        assert size > 0
        assert session.query(parse_ra("S")).answer_object() == database.relation("S")
        assert sorted(session.query(parse_ra("S")).cursor()) == sorted(database.relation("S").rows)
        assert session.query(parse_ra("R")).answer_object() == database.relation("R")
        assert len(memo) == size
        session.close()

    @staticmethod
    def _encoded_rows(codec, arity, count, start=0):
        pool = _value_pool()
        return [
            codec.encode_row(tuple(pool[(start + i * arity + k) % len(pool)] if k else "v%d" % (start + i)
                                   for k in range(arity)))
            for i in range(count)
        ]

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_column_wise_decode_rows_equals_decode_row(self, arity):
        columnar, per_row = SentinelCodec(), SentinelCodec()
        rows = self._encoded_rows(columnar, arity, 200)
        self._encoded_rows(per_row, arity, 200)  # the same opaque tokens
        assert columnar.decode_rows([]) == []
        for _ in range(2):  # a fresh memo, then a warm one
            decoded = columnar.decode_rows(rows)
            assert decoded == [per_row.decode_row(row) for row in rows]
            assert all(type(row) is tuple and len(row) == arity for row in decoded)
            assert dict(columnar._memo) == dict(per_row._memo)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_a_frozen_memo_decodes_column_wise_without_inserting(self, arity):
        codec = SentinelCodec()
        rows = self._encoded_rows(codec, arity, 50)
        codec.decode_rows(rows[:10])
        codec.freeze()
        size = len(codec._memo)
        assert codec.decode_rows(rows) == [codec.decode_row(row) for row in rows]
        assert len(codec._memo) == size

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_a_full_memo_is_emptied_in_row_order(self, arity, monkeypatch):
        # The memo sees the values in the order decode_row would: a full
        # memo is emptied at the same value and refills the same way.
        monkeypatch.setattr(encoding, "DECODE_MEMO_LIMIT", 16)
        columnar, per_row = SentinelCodec(), SentinelCodec()
        warm = self._encoded_rows(columnar, 1, 16, start=1000)
        self._encoded_rows(per_row, 1, 16, start=1000)
        for codec in (columnar, per_row):
            codec.decode_rows(warm)
            assert len(codec._memo) == encoding.DECODE_MEMO_LIMIT
        rows = self._encoded_rows(columnar, arity, 9)
        self._encoded_rows(per_row, arity, 9)
        assert columnar.decode_rows(rows) == [per_row.decode_row(row) for row in rows]
        assert len(columnar._memo) <= encoding.DECODE_MEMO_LIMIT
        assert list(columnar._memo) == list(per_row._memo)

    def test_sql_null_codec_decodes_fresh_nulls(self):
        codec = SQLNullCodec()
        first = codec.decode_row((None, None, "a"))
        second = codec.decode_row((None, None, "a"))
        nulls = [first[0], first[1], second[0], second[1]]
        assert all(is_null(null) for null in nulls)
        assert len(set(nulls)) == 4
        assert first[2] == second[2] == "a"


class TestSentinelInjectivity:
    def test_encodings_agree_with_naive_equality(self):
        codec = SentinelCodec()
        pool = _value_pool()
        for a in pool:
            for b in pool:
                same_encoding = codec.encode(a) == codec.encode(b)
                assert same_encoding == (a == b), (a, b)

    def test_sentinels_never_collide_with_user_constants(self):
        codec = SentinelCodec()
        constants = [v for v in _value_pool() if not is_null(v)]
        nulls = [v for v in _value_pool() if is_null(v)]
        null_encodings = {codec.encode(n) for n in nulls}
        for constant in constants:
            assert codec.encode(constant) not in null_encodings

    def test_python_numeric_equality_is_preserved(self):
        # 1 == 1.0 == True in Python (and in interned relation rows), so
        # the backend must map all three to one SQL value.
        codec = SentinelCodec()
        assert codec.encode(1) == codec.encode(1.0) == codec.encode(True)
        assert codec.encode(0) == codec.encode(0.0) == codec.encode(False)
        assert codec.encode(1) != codec.encode(1.5)
        assert codec.encode(1) != codec.encode("1")

    def test_numbers_of_other_types_encode_as_the_builtin_they_equal(self):
        # Regression: Decimal(1) took an opaque token while the compiler
        # encoded the query constant 1 as "i1", so SQL = told them apart.
        codec = SentinelCodec()
        assert codec.encode(Decimal(1)) == codec.encode(1) == codec.encode(Fraction(2, 2))
        assert codec.encode(Fraction(1, 2)) == codec.encode(0.5)
        assert codec.encode(Decimal(10**20 + 1)) == codec.encode(10**20 + 1)
        assert codec.encode(Decimal("0.1")) == codec.encode(Fraction(1, 10)) != codec.encode(0.1)
        assert codec.encode(_Label("a")) == codec.encode("a")
        assert type(codec.decode(codec.encode(Decimal(1)))) is int

    def test_a_number_equal_to_a_builtin_is_selected_by_it_on_sqlite(self):
        db = Database.from_dict({"R": [(Decimal(1), "a"), (2, "b"), (Fraction(1, 2), "c")]})
        for text in ("select[#0 = 1](R)", "select[#0 = 0.5](R)"):
            query = parse_ra(text)
            with repro.connect(db, engine="sqlite") as session:
                answer = session.query(query).certain()
            assert answer == PlanCache().execute(query, db) and len(answer) == 1

    @pytest.mark.parametrize("value", [float("nan"), Decimal("NaN"), Decimal("sNaN")])
    def test_nan_rejected(self, value):
        with pytest.raises(EncodingError):
            SentinelCodec().encode(value)

    def test_unknown_opaque_token_rejected(self):
        with pytest.raises(EncodingError):
            SentinelCodec().decode("o999")

    def test_non_text_rejected_on_decode(self):
        with pytest.raises(EncodingError):
            SentinelCodec().decode(17)


class TestSQLNullCodec:
    def test_marked_nulls_become_sql_null(self):
        codec = SQLNullCodec()
        assert codec.encode(Null("x")) is None
        assert codec.encode("a") == "a"
        assert codec.encode(3) == 3

    def test_decode_null_is_fresh_mark(self):
        codec = SQLNullCodec()
        first, second = codec.decode(None), codec.decode(None)
        assert is_null(first) and is_null(second)
        assert first != second  # Codd nulls: every occurrence its own mark

    def test_opaque_constants_rejected(self):
        with pytest.raises(EncodingError):
            SQLNullCodec().encode((1, 2))
