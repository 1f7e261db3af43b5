"""Injective encodings between repro values and SQL storage.

Naive evaluation needs SQL ``=`` to coincide with the naive equality of
:mod:`repro.datamodel.values`: a marked null is equal to itself and
different from every constant and every other null.  SQL engines cannot
be given their own ``NULL`` for this (``NULL = NULL`` is *unknown*), so
the sentinel codec maps every value to a tagged TEXT string:

===========================  =======================================
value                        encoding
===========================  =======================================
``Null(name)``               ``"n" + name``
``str``                      ``"s" + value``
``int`` / ``bool`` /         ``"i" + decimal`` (numbers are
integral ``float``           canonicalized first: ``True == 1 ==
                             1.0`` in Python, so all three encode
                             identically)
non-integral ``float``       ``"f" + repr(value)``
any other hashable constant  ``"o" + token`` via a per-codec registry
===========================  =======================================

A value of another type that equals a builtin one — ``Decimal(1)``,
``Fraction(1, 2)``, a numpy integer, a ``str`` subclass — encodes as
the builtin it equals, so Python equality always implies equal
encodings; it decodes as that builtin.

The first character is the *tag*; distinct tags never collide, and within
a tag the payload is injective (null names are identifiers, ``repr`` of a
float round-trips exactly, the opaque registry is keyed by value
equality).  In particular a user string such as ``"nx"`` encodes as
``"snx"`` and can never collide with the sentinel of ``Null("x")`` —
the round-trip ``decode(encode(v)) == v`` is an identity, which the
property tests assert.

The second codec, :class:`SQLNullCodec`, deliberately *loses* the marks:
every ``Null`` becomes a plain SQL ``NULL`` and constants are stored raw.
It exists for the :mod:`repro.sqlnulls` comparison scenarios — the
Section 1 "what SQL gets wrong" demos — where the point is to run the
standard's three-valued semantics on a real SQL engine.

Decoding is memoized in the sentinel codec: a warm query reads back the
same encoded texts round after round, and the tag dispatch, slice and
``sys.intern`` of :meth:`SentinelCodec.decode` cost more than SQLite's
own work.  Caching is sound because the codec is injective and its
opaque registry only grows, so a text decodes to the same value for the
codec's whole lifetime; only successful decodes are cached, so a bad
input raises :class:`EncodingError` on every call.  The memo holds at
most :data:`DECODE_MEMO_LIMIT` entries and is emptied when it fills.
:class:`SQLNullCodec` is not memoized: each SQL ``NULL`` it reads must
become a *fresh* null.
"""

from __future__ import annotations

import numbers
import sys
from itertools import chain
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from ..datamodel.values import Null, intern_null, intern_value, is_null
from .base import EncodingError

Row = Tuple[Any, ...]

#: Entries the sentinel codec's decode memo holds before it is emptied.
#: An entry (encoded key, decoded value, dict slot) costs about 170 bytes
#: for short text values, so a full memo is about 11 MB.  A warm
#: 8k-order SQLite session decodes about 12k distinct values, well under.
DECODE_MEMO_LIMIT = 1 << 16


def _builtin_number(value: Any) -> Any:
    """The ``int`` or ``float`` equal to a number of another type, or
    ``None`` when neither is (``Decimal("0.1")``, ``Fraction(1, 3)``)."""
    try:
        unequal = value != value
    except ArithmeticError:  # a signalling NaN refuses to compare
        unequal = True
    if unequal:
        raise EncodingError(f"{value!r} is not equal to itself: no sound encoding")
    if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
        if value.imag:
            return None
        value = value.real
    for convert in (int, float):
        try:
            converted = convert(value)
        except (TypeError, ValueError, ArithmeticError):
            continue
        if converted == value:
            return converted
    return None


class _DecodeMemo(dict):
    """Encoded text → decoded value; a miss decodes through ``decode``.

    A failed decode raises out of :meth:`__missing__` before anything is
    stored.  A full memo is emptied before the next insert, so its size
    never exceeds :data:`DECODE_MEMO_LIMIT`.  Once :attr:`frozen` it
    serves hits and decodes misses without inserting, so threads sharing
    a frozen backend only ever read it.
    """

    __slots__ = ("_decode", "frozen")

    def __init__(self, decode: Callable[[Any], Any]) -> None:
        super().__init__()
        self._decode = decode
        self.frozen = False

    def __missing__(self, text: Any) -> Any:
        value = self._decode(text)
        if not self.frozen:
            if len(self) >= DECODE_MEMO_LIMIT:
                self.clear()
            self[text] = value
        return value


class SentinelCodec:
    """The injective marked-null ⇄ sentinel-constant codec (naive mode).

    Its state is the opaque-constant registry and the decode memo behind
    :meth:`decode_row`.  The registry is why one codec instance must be
    shared between loading a database and compiling the queries that run
    against it (the backend owns exactly one).
    """

    __slots__ = ("_opaque", "_opaque_rev", "_memo")

    #: SQL semantics of the encoded values: sets (the naive model).
    set_semantics = True
    #: Column type used in DDL; every encoded value is text.
    column_type = "TEXT"

    def __init__(self) -> None:
        self._opaque: Dict[Any, str] = {}
        self._opaque_rev: Dict[str, Any] = {}
        self._memo = _DecodeMemo(self.decode)

    def freeze(self) -> None:
        """Stop inserting into the decode memo (hits are still served)."""
        self._memo.frozen = True

    # ------------------------------------------------------------------
    def encode(self, value: Any) -> str:
        """The tagged-text encoding of a storable value."""
        if isinstance(value, Null):
            return "n" + value.name
        if type(value) is str:
            return "s" + value
        if isinstance(value, bool):
            return "i" + str(int(value))
        if isinstance(value, int):
            return "i" + str(value)
        if isinstance(value, float):
            if value != value:  # NaN is not equal to itself: no sound encoding
                raise EncodingError("NaN cannot be stored through the SQL backend")
            if value.is_integer():
                return "i" + str(int(value))
            return "f" + repr(value)
        if isinstance(value, str):
            return "s" + str(value)
        if isinstance(value, numbers.Number):
            builtin = _builtin_number(value)
            if builtin is not None:
                return self.encode(builtin)
        return self._encode_opaque(value)

    def _encode_opaque(self, value: Any) -> str:
        token = self._opaque.get(value)
        if token is None:
            if value is None:
                raise EncodingError("None is not a storable value")
            token = "o" + str(len(self._opaque))
            self._opaque[value] = token
            self._opaque_rev[token] = value
        return token

    def decode(self, text: Any) -> Any:
        """Invert :meth:`encode`; the result is interned like relation values.

        Uncached: :meth:`decode_row` is the memoized path.
        """
        if not isinstance(text, str) or not text:
            raise EncodingError(f"not a sentinel-encoded value: {text!r}")
        tag, payload = text[0], text[1:]
        if tag == "s":
            return sys.intern(payload)
        if tag == "n":
            return intern_null(Null(payload))
        if tag == "i":
            return int(payload)
        if tag == "f":
            return float(payload)
        if tag == "o":
            try:
                return self._opaque_rev[text]
            except KeyError:
                raise EncodingError(f"unknown opaque token {text!r}") from None
        raise EncodingError(f"unknown encoding tag {tag!r} in {text!r}")

    # ------------------------------------------------------------------
    def encode_row(self, row: Sequence[Any]) -> Row:
        return tuple(self.encode(value) for value in row)

    def decode_row(self, row: Sequence[Any]) -> Row:
        return tuple(map(self._memo.__getitem__, row))

    def decode_rows(self, rows: Sequence[Sequence[Any]]) -> List[Row]:
        """:meth:`decode_row` over ``rows``, column by column.

        Each column goes through the memo in one ``map`` and ``zip``
        reassembles the rows, so no Python-level step runs per row.
        ``zip`` pulls its columns in turn, so the memo still sees the
        values in row order.
        """
        lookup = self._memo.__getitem__
        if rows and len(rows[0]) == 1:
            return list(zip(map(lookup, chain.from_iterable(rows))))
        return list(zip(*[map(lookup, column) for column in zip(*rows)]))


class SQLNullCodec:
    """Store marked nulls as plain SQL ``NULL`` and constants raw.

    This is the encoding of the *criticized* semantics: all marks are
    conflated, so SQLite's own three-valued logic takes over — exactly
    what the sqlnulls comparison scenarios demonstrate.  Decoding maps
    each SQL ``NULL`` to a fresh marked null (SQL nulls are the Codd
    special case: every occurrence is its own null).  Only primitive
    constants are supported; bag semantics is preserved.
    """

    __slots__ = ()

    set_semantics = False
    column_type = ""  # no affinity: values keep their storage class

    def freeze(self) -> None:
        """Nothing to freeze: this codec keeps no decode memo."""

    def encode(self, value: Any) -> Any:
        if isinstance(value, Null):
            return None
        if isinstance(value, (str, int, float, bool)):
            return value
        raise EncodingError(
            f"the SQL-null codec only stores primitive constants, got {value!r}"
        )

    def decode(self, value: Any) -> Any:
        if value is None:
            return Null.fresh("sql")
        return intern_value(value)

    def encode_row(self, row: Sequence[Any]) -> Row:
        return tuple(self.encode(value) for value in row)

    def decode_row(self, row: Sequence[Any]) -> Row:
        return tuple(map(self.decode, row))

    def decode_rows(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        # Row-major on purpose: each SQL NULL mints a fresh null, in order.
        decode = self.decode
        return [tuple(map(decode, row)) for row in rows]
