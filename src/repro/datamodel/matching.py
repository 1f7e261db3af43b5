"""Which rows may equal a probe under some valuation of the nulls.

A null can take any value, so two rows are equal under *some* valuation
only if they agree wherever both hold a constant.  That necessary
condition is what :class:`MayEqualIndex` answers in time proportional to
its output; the caller decides each candidate exactly (a condition kernel
folds the equality, a union-find unifies marked nulls, a support prunes
the pair).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .relations import Row
from .values import is_null

#: The positions of a row that hold constants.
Shape = Tuple[int, ...]


class MayEqualIndex:
    """Candidate rows, by position, that agree with a probe on its constants.

    Null-free rows are hashed by value, so a null-free probe meets its
    exact matches directly.  Rows with nulls are grouped by *shape* (the
    positions holding constants), and each group is hashed, on first
    need, on the positions both it and the probe's shape fix.  Candidate
    lists come back ascending and must not be mutated.

    >>> from repro.datamodel import Null
    >>> index = MayEqualIndex([(1, 2), (1, Null("x")), (3, 2)])
    >>> list(index.candidates((1, 2))), list(index.candidates((Null("y"), 2)))
    ([0, 1], [0, 1, 2])
    """

    __slots__ = ("rows", "keyed", "complete", "shapes", "_hashed")

    def __init__(self, rows: Sequence[Row]) -> None:
        self.rows = rows
        self.keyed: Dict[Row, List[int]] = {}
        self.complete: List[int] = []
        self.shapes: Dict[Shape, List[int]] = {}
        for position, values in enumerate(rows):
            if any(map(is_null, values)):
                shape = tuple(i for i, value in enumerate(values) if not is_null(value))
                self.shapes.setdefault(shape, []).append(position)
            else:
                self.keyed.setdefault(values, []).append(position)
                self.complete.append(position)
        self._hashed: Dict[Tuple[Optional[Shape], Shape], Dict[Row, List[int]]] = {}

    def candidates(self, probe: Row) -> Sequence[int]:
        """Ascending positions of the rows agreeing with ``probe`` wherever both hold constants."""
        if any(map(is_null, probe)):
            fixed: Optional[Shape] = tuple(i for i, value in enumerate(probe) if not is_null(value))
            if not fixed:
                return range(len(self.rows))
            found = [self._bucket(None, self.complete, fixed, probe)]
        else:
            fixed = None
            found = [self.keyed.get(probe, ())]
            if not self.shapes:
                return found[0]
        for shape, positions in self.shapes.items():
            common = shape if fixed is None else tuple(i for i in shape if i in fixed)
            found.append(self._bucket(shape, positions, common, probe))
        found = [bucket for bucket in found if bucket]
        if len(found) == 1:
            return found[0]
        return sorted([position for bucket in found for position in bucket])

    def _bucket(
        self, shape: Optional[Shape], positions: List[int], common: Shape, probe: Row
    ) -> Sequence[int]:
        """The rows of one group (``positions``) holding ``probe``'s values on ``common``."""
        key = (shape, common)
        hashed = self._hashed.get(key)
        if hashed is None:
            hashed = {}
            rows = self.rows
            for position in positions:
                values = rows[position]
                hashed.setdefault(tuple([values[i] for i in common]), []).append(position)
            # Published whole: a concurrent reader never sees a half-built hash.
            self._hashed[key] = hashed
        return hashed.get(tuple([probe[i] for i in common]), ())
