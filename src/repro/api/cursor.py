"""Result cursors: iterate large results without materializing python lists.

Engine results are canonical :class:`~repro.objects.values.SetVal` values --
interned, shared, cheap to hold.  What is *not* cheap is eagerly converting a
quarter-million-row result to a python list of tuples when the caller wanted
the first ten rows, or wanted to stream rows into a socket.  A
:class:`Cursor` wraps the raw result value and converts rows on demand --
one at a time when iterated (`to_python` per element), a fetched chunk one
row shape at a time (`rows_of`) -- DB-API style:

    cur = session.execute(query)
    first = cur.fetchone()
    for row in cur:            # streams the rest, no list is ever built
        ...

``fetchall``/``fetchmany`` exist for callers who do want lists.  The raw
value stays available as :attr:`Cursor.value` (and is what the cross-checks
compare), so taking a cursor costs nothing over the old ``Engine.run``
return.  Scalar results (booleans from ``exists()``-style queries, pairs,
atoms) are one-row cursors; :meth:`scalar` unwraps them directly.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from ..objects.values import SetVal, Value, rows_of, to_python


class Cursor:
    """A forward-only cursor over one query result."""

    def __init__(self, value: Value, rows_hook=None) -> None:
        self._value = value
        self._pos = 0
        # Session stats callback: called with the number of rows converted.
        self._rows_hook = rows_hook
        if isinstance(value, SetVal):
            self._elements = value.elements
        else:
            self._elements = (value,)

    # -- raw access ---------------------------------------------------------------

    @property
    def value(self) -> Value:
        """The untouched result value (canonical, interned)."""
        return self._value

    def scalar(self) -> Any:
        """The python form of a single-value result (bool / atom / tuple)."""
        if isinstance(self._value, SetVal):
            raise TypeError(
                f"result is a set of {len(self._elements)} rows, not a scalar; "
                "iterate or fetch instead"
            )
        return to_python(self._value)

    # -- streaming ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def rownumber(self) -> int:
        """How many rows have been fetched so far."""
        return self._pos

    def __iter__(self) -> Iterator[Any]:
        while self._pos < len(self._elements):
            row = to_python(self._elements[self._pos])
            self._pos += 1
            if self._rows_hook is not None:
                self._rows_hook(1)
            yield row

    def fetchone(self) -> Optional[Any]:
        """The next row as python data, or ``None`` when exhausted."""
        if self._pos >= len(self._elements):
            return None
        row = to_python(self._elements[self._pos])
        self._pos += 1
        if self._rows_hook is not None:
            self._rows_hook(1)
        return row

    def fetchmany(self, size: int = 1000) -> list[Any]:
        """Up to ``size`` further rows (an empty list when exhausted)."""
        if size < 0:
            raise ValueError("fetchmany size must be >= 0")
        stop = min(self._pos + size, len(self._elements))
        rows = rows_of(self._elements[self._pos:stop])
        if self._rows_hook is not None and rows:
            self._rows_hook(len(rows))
        self._pos = stop
        return rows

    def fetchall(self) -> list[Any]:
        """Every remaining row as a python list (materializes; opt-in)."""
        return self.fetchmany(len(self._elements) - self._pos)

    def fetch_values(self, size: int = 1000) -> list[Value]:
        """Up to ``size`` further rows as raw :class:`Value` objects.

        The serialization path of the network service: the wire format
        encodes interned values directly (``repro.objects.encoding``), so
        converting to python tuples/frozensets first would be wasted work.
        Advances the cursor and feeds the session's ``rows_streamed`` counter
        exactly like the python-data fetches.
        """
        if size < 0:
            raise ValueError("fetch_values size must be >= 0")
        stop = min(self._pos + size, len(self._elements))
        values = list(self._elements[self._pos:stop])
        if self._rows_hook is not None and values:
            self._rows_hook(len(values))
        self._pos = stop
        return values

    def rows(self) -> frozenset:
        """All rows as a frozenset of python data (order-free comparison aid)."""
        return frozenset(rows_of(self._elements)) if isinstance(
            self._value, SetVal
        ) else frozenset((to_python(self._value),))

    def __repr__(self) -> str:
        kind = "set" if isinstance(self._value, SetVal) else "scalar"
        return f"<Cursor {kind} rows={len(self._elements)} at={self._pos}>"
