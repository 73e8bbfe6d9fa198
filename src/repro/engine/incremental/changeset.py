"""Changesets: the normalized unit of database mutation.

A :class:`Changeset` records, per collection, which elements were **inserted**
and which were **deleted** by one commit.  It is the value that flows from
mutable :class:`~repro.api.catalog.Database` objects into
:class:`~repro.engine.incremental.view.MaterializedView.apply`, and its
invariants are what keep delta maintenance sound without re-deriving them at
every operator:

* **net effect** -- inserts are elements that were genuinely absent before
  the commit and deletes are elements that were genuinely present; re-adding
  a present row or removing an absent one is a no-op and never appears here
  (``Database.insert``/``delete`` normalize against the live collection);
* **disjointness** -- no element appears on both sides for one collection;
* **complex object values** -- every element is a
  :class:`~repro.objects.values.Value`, not yet canonical in any engine:
  each engine's :class:`~repro.api.catalog.Snapshot` interns a commit's
  rows once, and its views take those canonical rows from it
  (``Snapshot.rows``) rather than from the changeset.

With those invariants, the delta a changeset induces at a base-collection
leaf of a maintenance plan is exactly ``+1`` per insert and ``-1`` per
delete, and every operator above the leaf can propagate signed support
counts without consulting the database again.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ...objects.values import Value, from_python


class CollectionDelta:
    """Inserted and deleted elements of one collection (net, disjoint)."""

    __slots__ = ("inserts", "deletes")

    def __init__(
        self,
        inserts: Iterable[Value] = (),
        deletes: Iterable[Value] = (),
    ) -> None:
        self.inserts: tuple[Value, ...] = tuple(inserts)
        self.deletes: tuple[Value, ...] = tuple(deletes)

    def __bool__(self) -> bool:
        return bool(self.inserts or self.deletes)

    def __repr__(self) -> str:
        return f"(+{len(self.inserts)}/-{len(self.deletes)})"


class Changeset:
    """One commit's worth of collection deltas, keyed by collection name."""

    def __init__(self, deltas: Optional[dict[str, CollectionDelta]] = None) -> None:
        self._deltas: dict[str, CollectionDelta] = {
            name: d for name, d in (deltas or {}).items() if d
        }

    # -- construction ----------------------------------------------------------

    @classmethod
    def of(cls, **collections) -> "Changeset":
        """``Changeset.of(edges=([(0, 9)], [(3, 4)]))``: (inserts, deletes) pairs.

        Plain python rows are converted with
        :func:`~repro.objects.values.from_python`.  This builder does *not*
        normalize against any database state -- pass the result to
        :meth:`~repro.api.catalog.Database.apply`, which does.
        """
        deltas = {}
        for name, (ins, dels) in collections.items():
            deltas[name] = CollectionDelta(
                (v if isinstance(v, Value) else from_python(v) for v in ins),
                (v if isinstance(v, Value) else from_python(v) for v in dels),
            )
        return cls(deltas)

    # -- views -----------------------------------------------------------------

    def collections(self) -> list[str]:
        """The collections this changeset touches, sorted."""
        return sorted(self._deltas)

    def touches(self, names: Iterable[str]) -> bool:
        """True iff the changeset mutates any of the named collections."""
        return any(name in self._deltas for name in names)

    def get(self, name: str) -> Optional[CollectionDelta]:
        return self._deltas.get(name)

    def __getitem__(self, name: str) -> CollectionDelta:
        return self._deltas[name]

    def __contains__(self, name: str) -> bool:
        return name in self._deltas

    def __iter__(self) -> Iterator[str]:
        return iter(self._deltas)

    def __bool__(self) -> bool:
        return bool(self._deltas)

    def rows_touched(self) -> int:
        """Total inserts plus deletes, over all collections."""
        return sum(len(d.inserts) + len(d.deletes) for d in self._deltas.values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{d!r}" for n, d in sorted(self._deltas.items()))
        return f"Changeset({inner})"
