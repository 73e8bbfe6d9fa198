"""Named databases and catalogs: the data half of the query-service API.

A :class:`Database` is a set of **named collections** -- complex object
values registered once under a name, each with a schema type.  The schema is
*inferred and validated through the type checker*: the registered value is
wrapped as an NRA constant and pushed through :func:`repro.nra.typecheck.infer`,
which re-checks the value against the inferred type (``Const`` nodes are
verified with :func:`repro.objects.values.check_type`).  Queries built with
:class:`~repro.api.query.Q` reference collections by name; at execution time
a :class:`~repro.api.session.Session` elaborates the query against this
schema and supplies the collection values through the evaluation
environment.

Registration accepts :class:`~repro.relational.relation.Relation` instances,
whole :class:`~repro.relational.database.OrderedDatabase` contents, ready
:class:`~repro.objects.values.Value` objects, or plain python data (converted
with :func:`~repro.objects.values.from_python`).

A :class:`Catalog` is one level up: named databases, so one process can serve
many datasets and ``catalog.connect("graphs")`` hands out sessions.  Both
classes are safe to share between sessions.

Mutation.  A database is **mutable** by default: :meth:`Database.insert`,
:meth:`Database.delete` and :meth:`Database.apply` change the *contents* of a
registered collection (its schema type never changes) and return the
normalized :class:`~repro.engine.incremental.changeset.Changeset` -- net
effect only, validated element-by-element against the schema.  Every commit
bumps the database *version* and that of each collection it wrote, and is
delivered in commit order first to the :class:`Snapshot` of every engine
with an open session or view (advanced by the changeset, not re-interned),
then to the :class:`~repro.engine.incremental.view.MaterializedView` objects
registered by ``Session.materialize`` -- views absorb the delta (or fall back
to recompute) before the mutating call returns.  Pass ``mutable=False`` for a
frozen snapshot (the PR-3 behaviour) whose collections only change via
:meth:`Database.drop` + re-register; dropping a collection marks dependent
views *stale* rather than silently recomputing them against a new schema.
"""

from __future__ import annotations

import threading
import weakref
from bisect import bisect_left
from typing import Iterator, Optional

from ..engine.incremental.changeset import Changeset, CollectionDelta
from ..engine.router import CollectionStats, collection_stats
from ..nra.ast import Const
from ..nra.typecheck import infer
from ..objects.types import SetType, Type
from ..obs.metrics import METRICS
from ..obs.trace import TRACER
from ..objects.values import (
    SetVal,
    Value,
    canonical_set,
    check_type,
    from_python,
    infer_type,
    sort_key,
)
from ..relational.database import OrderedDatabase
from ..relational.relation import Relation
from .query import PARAM_PREFIX, Schema


class Snapshot:
    """One engine's interned image of a database's collections.

    Shared by every session and view of that engine on that database, which
    own it: the database holds it weakly, and one nobody reads has none.
    ``env`` (name -> interned value) is *replaced*, never mutated, so a
    reader that took it sees one committed state; ``versions`` is the
    per-collection version each value reflects.  A commit moves a collection
    by ``Engine.advance`` -- O(|delta|), flat columns and indexes carried --
    when the snapshot is at the version the commit started from and the
    delta is no larger than the collection; otherwise, and on first use, it
    is interned whole.  Hash-consing makes both the same object.

    A commit's written rows are interned once, here, for the advance and
    for every view of the engine (``InternTable.intern_rows``: a pair of
    interned atoms is one lookup of its packed code): ``rows`` maps each
    written collection to its ``(inserts, deletes, insert codes, delete
    codes)``, the canonical values and beside them their pair codes
    (``None`` for a row that is no pair), and ``changeset`` is the commit
    they came from.  A view hands the codes to a fixpoint or composition
    over the collection and the values to any other node.  Both are
    replaced at the next move, as ``env`` is.  Until then the snapshot
    holds the deleted rows, which the advance has cut from its collection,
    across the intern-table sweep that may end the advance, for the views
    that read them after it.
    """

    def __init__(self, engine, db: "Database") -> None:
        self.engine = engine
        with db._lock:
            values, self.versions = dict(db._collections), dict(db._versions)
        self.env: dict[str, Value] = {n: engine.intern(v) for n, v in values.items()}
        self.changeset: Optional[Changeset] = None
        self.rows: dict[str, tuple[list, list, list, list]] = {}

    def _move(self, moved: dict, changeset: Optional[Changeset] = None) -> None:
        """Follow one commit, registration or drop (commit lock held): ``moved``
        maps name to ``(version before, version after, value)``, ``None`` where absent."""
        env, versions, engine = dict(self.env), dict(self.versions), self.engine
        rows: dict[str, tuple[list, list, list, list]] = {}
        counts = {"delta": 0, "rebuild": 0}
        with engine.lock, TRACER.span("snapshot-advance") as sp:
            for name, (before, after, value) in moved.items():
                if value is None:
                    del env[name], versions[name]
                    continue
                d = changeset.get(name) if changeset is not None else None
                if d is None:  # a registration: the cold load, not an advance
                    env[name] = engine.intern(value)
                else:
                    values, codes = engine.interner.intern_rows([*d.inserts, *d.deletes])
                    n = len(d.inserts)
                    ins, dels = values[:n], values[n:]
                    rows[name] = (ins, dels, codes[:n], codes[n:])
                    if (versions.get(name) == before
                            and len(ins) + len(dels) <= len(env[name].elements)):
                        env[name] = engine.advance(env[name], ins, dels)
                        counts["delta"] += 1
                    else:
                        env[name] = engine.intern(value)
                        counts["rebuild"] += 1
                versions[name] = after
            if sp is not None:
                sp.set(**counts)
        for kind, n in counts.items():
            if n and METRICS.enabled:
                METRICS.counter(f'repro_snapshot_advances_total{{kind="{kind}"}}').inc(n)
        self.env, self.versions, self.changeset, self.rows = env, versions, changeset, rows


class Database:
    """A named database of typed collections, served by sessions."""

    def __init__(self, name: str = "db", mutable: bool = True) -> None:
        self.name = name
        self.mutable = mutable
        self._collections: dict[str, Value] = {}
        self._schema: Schema = {}
        # Router statistics, maintained incrementally with the contents:
        # collection values are canonical sorted tuples, so count and sample
        # are O(1) per commit (see repro.engine.router.collection_stats).
        self._stats: dict[str, CollectionStats] = {}
        # Per collection, its live set and that set's element sort keys in
        # row order: a commit bisects them at C level and edits them with
        # the rows it cuts and inserts (a set that is no longer live has
        # its keys recomputed once).
        self._keys: dict[str, tuple[Value, list]] = {}
        # Guards registration against concurrent sessions reading the schema.
        self._lock = threading.Lock()
        # Serializes commits *and* view registration, so every view observes
        # every changeset exactly once and in commit order.  Lock order: the
        # commit lock is taken before the state lock and before any engine
        # lock (views acquire their engine's lock inside ``apply``); nothing
        # acquires the commit lock while holding either.
        self._commit_lock = threading.RLock()
        self._views: list = []
        #: Bumped on every mutation (registration, drop, commit).
        self.version = 0
        # Collection name -> the database version that last wrote it, so a
        # write to one collection moves no other in a snapshot.
        self._versions: dict[str, int] = {}
        # id(engine) -> Snapshot, weakly: sessions and views hold them.  A
        # live snapshot keeps its engine alive, so the id cannot be reused.
        self._snapshots = weakref.WeakValueDictionary()

    # -- registration -------------------------------------------------------------

    def register(self, name: str, data, type: Optional[Type] = None) -> "Database":
        """Register collection ``name``; returns ``self`` for chaining.

        ``data`` may be a ``Relation``, a complex object ``Value``, or plain
        python data.  The schema entry is ``type`` if given, else inferred;
        either way the pair is validated through the type checker.
        """
        if name.startswith(PARAM_PREFIX):
            raise ValueError(
                f"collection name {name!r} collides with the parameter namespace"
            )
        if isinstance(data, Relation):
            value = data.value()
            t = type if type is not None else data.type
        else:
            value = data if isinstance(data, Value) else from_python(data)
            # An explicit type wins; inference cannot see through empty sets
            # (and nested data with empty inner sets *needs* the declaration).
            t = type if type is not None else infer_type(value)
        # Schema inference *via the type checker*: a Const node carrying the
        # value and candidate type only types if the value inhabits the type.
        inferred = infer(Const(value, t))
        with self._commit_lock:
            with self._lock:
                if name in self._collections:
                    raise ValueError(f"collection {name!r} already registered")
                self._collections[name] = value
                self._schema[name] = inferred
                self._stats[name] = collection_stats(value)
                self.version += 1
                self._versions[name] = self.version
            # A re-registered name has a new version: interned whole,
            # nothing of its namesake patched onto it.
            self._notify({name: (None, self.version, value)})
        return self

    def drop(self, name: str) -> None:
        with self._commit_lock:
            with self._lock:
                if name not in self._collections:
                    raise KeyError(f"no collection {name!r}")
                del self._collections[name]
                del self._schema[name]
                self._stats.pop(name, None)
                self._keys.pop(name, None)
                self.version += 1
                before = self._versions.pop(name)
                views = list(self._views)
            self._notify({name: (before, None, None)})
        # The collection's schema entry is gone: dependent views can no
        # longer be maintained *or* recomputed meaningfully -- mark them
        # stale instead of serving a value over a vanished base.
        for v in views:
            if v.depends_on(name):
                v.mark_stale()

    # -- snapshots ------------------------------------------------------------

    def snapshot(self, engine) -> Snapshot:
        """``engine``'s :class:`Snapshot` of this database, made on first use.

        Hold the result for as long as it should keep following commits.
        """
        with self._commit_lock:
            snap = self._snapshots.get(id(engine))
            if snap is None:
                snap = self._snapshots[id(engine)] = Snapshot(engine, self)
            return snap

    def _notify(self, moved: dict, changeset: Optional[Changeset] = None) -> None:
        """Move every live snapshot (commit lock held, state lock not)."""
        for snap in list(self._snapshots.values()):
            snap._move(moved, changeset)

    # -- mutation -------------------------------------------------------------

    def insert(self, name: str, rows) -> Changeset:
        """Insert rows into a collection; returns the net changeset.

        ``rows`` is an iterable of elements (``Value`` or plain python data).
        Rows already present are dropped from the changeset (net effect),
        every genuinely new row is validated against the collection's element
        type, and registered views absorb the delta before this returns.
        """
        return self.apply(Changeset.of(**{name: (list(rows), [])}))

    def delete(self, name: str, rows) -> Changeset:
        """Delete rows from a collection; returns the net changeset.

        Rows not present are dropped from the changeset (net effect).
        """
        return self.apply(Changeset.of(**{name: ([], list(rows))}))

    def apply(self, changeset: Changeset) -> Changeset:
        """Commit a (possibly multi-collection) changeset atomically.

        The changeset is normalized against the live contents -- inserts of
        present rows and deletes of absent rows become no-ops -- and the
        normalized form is returned and delivered to every registered view
        in registration order.  Raises ``TypeError`` if an inserted row does
        not inhabit the collection's element type, ``KeyError`` for unknown
        collections, and ``RuntimeError`` on a frozen (``mutable=False``)
        database; a commit refused for any of these changes nothing.  A view
        whose maintenance raises does not stop the commit: it is published,
        the changeset still reaches every later view, the first error is
        raised after them, and the failed view rebuilds from the committed
        bases on its next read or commit.
        """
        if not self.mutable:
            raise RuntimeError(
                f"database {self.name!r} is frozen (mutable=False); "
                "rebuild it with mutable=True to accept updates"
            )
        with self._commit_lock:
            with self._lock:
                normalized, updates = self._normalize(changeset)
                moved = {}
                if updates:
                    self._collections.update(updates)
                    self.version += 1
                    for name, value in updates.items():
                        old = self._stats.get(name)
                        self._stats[name] = collection_stats(
                            value, updates=(old.updates + 1) if old else 1
                        )
                        moved[name] = (self._versions[name], self.version, value)
                        self._versions[name] = self.version
                views = list(self._views)
            if normalized:
                with TRACER.span("commit", db=self.name):
                    # Snapshots first: a view reads its bases from its
                    # engine's snapshot, already at this commit.
                    self._notify(moved, normalized)
                    errors = []
                    for v in views:
                        try:
                            v._on_commit(normalized)
                        except Exception as e:
                            errors.append(e)
                    if errors:
                        raise errors[0]
            return normalized

    def _normalize(self, changeset: Changeset) -> tuple[Changeset, dict[str, Value]]:
        """Validate + net a changeset against live contents (under the lock)."""
        deltas: dict[str, CollectionDelta] = {}
        updates: dict[str, Value] = {}
        for name in changeset:
            if name not in self._collections:
                raise KeyError(f"no collection {name!r}")
            current = self._collections[name]
            if not isinstance(current, SetVal):
                raise TypeError(f"collection {name!r} is not a set; cannot mutate")
            t = self._schema[name]
            elem_t = t.elem if isinstance(t, SetType) else None
            d = changeset[name]
            # The live contents tuple is canonical, so a row is found -- and a
            # new one placed -- by bisection over its cached sort keys: a
            # commit costs O(|delta| log n), with no pass over the collection.
            elems = current.elements
            cached = self._keys.get(name)
            keys = (cached[1] if cached is not None and cached[0] is current
                    else [sort_key(v) for v in elems])

            def row_of(v: Value, k: tuple) -> tuple[int, bool]:
                row = bisect_left(keys, k)
                return row, row < len(elems) and elems[row] == v

            dels: dict[Value, int] = {}  # element -> its row
            for v in d.deletes:
                row, present = row_of(v, sort_key(v))
                if present:
                    dels[v] = row
            ins: dict[Value, tuple] = {}  # element -> (the row it goes before, its key)
            for v in d.inserts:
                if v in ins:
                    continue
                k = sort_key(v)
                row, present = row_of(v, k)
                if present and v not in dels:
                    continue
                if elem_t is not None and not check_type(v, elem_t):
                    raise TypeError(
                        f"insert into {name!r}: {v!r} does not have element "
                        f"type {elem_t!r}"
                    )
                if present:
                    # Deleted and re-inserted in one commit: a no-op, and
                    # keeping the pair would break the changeset's
                    # disjointness invariant.
                    del dels[v]
                else:
                    ins[v] = (row, k)
            if ins or dels:
                deltas[name] = CollectionDelta(ins, dels)
                kept, kept_keys = list(elems), list(keys)
                gone = sorted(dels.values())
                for row in reversed(gone):
                    del kept[row]
                    del kept_keys[row]
                # Rows were found in the old tuple: shift each insert left by
                # the deletes before it and right by the inserts before it.
                for n, (v, (row, k)) in enumerate(sorted(ins.items(), key=lambda i: i[1][1])):
                    at = row - bisect_left(gone, row) + n
                    kept.insert(at, v)
                    kept_keys.insert(at, k)
                updates[name] = canonical_set(tuple(kept))
                self._keys[name] = (updates[name], kept_keys)
        return Changeset(deltas), updates

    # -- materialized views ---------------------------------------------------

    def add_view(self, view) -> None:
        """Register a materialized view for commit notifications."""
        with self._lock:
            self._views.append(view)

    def remove_view(self, view) -> None:
        with self._lock:
            if view in self._views:
                self._views.remove(view)

    def views(self) -> list:
        """The registered views, in notification (registration) order."""
        with self._lock:
            return list(self._views)

    @classmethod
    def of(cls, name: str = "db", **collections) -> "Database":
        """``Database.of(name, edges=relation, bits={...})`` convenience."""
        db = cls(name)
        for coll, data in collections.items():
            db.register(coll, data)
        return db

    @classmethod
    def from_relations(cls, *relations: Relation, name: str = "db") -> "Database":
        """One collection per relation, under the relation's own name."""
        db = cls(name)
        for r in relations:
            db.register(r.name, r)
        return db

    @classmethod
    def from_ordered(cls, odb: OrderedDatabase, name: str = "db") -> "Database":
        """Adopt the contents of a Section-5 :class:`OrderedDatabase`."""
        return cls.from_relations(*odb, name=name)

    # -- views --------------------------------------------------------------------

    def schema(self) -> Schema:
        """Collection name -> complex object type (a copy; safe to mutate)."""
        with self._lock:
            return dict(self._schema)

    def environment(self) -> dict[str, Value]:
        """Collection name -> value, as an NRA evaluation environment."""
        with self._lock:
            return dict(self._collections)

    def stats(self) -> dict[str, CollectionStats]:
        """Collection name -> incremental statistics (count, sample, updates).

        What the adaptive router consumes: exact cardinalities plus small
        canonical samples, current as of the latest commit (a copy; safe to
        hold across commits, stale by design).
        """
        with self._lock:
            return dict(self._stats)

    def __getitem__(self, name: str) -> Value:
        return self._collections[name]

    def __contains__(self, name: str) -> bool:
        return name in self._collections

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._collections))

    def __len__(self) -> int:
        return len(self._collections)

    def __repr__(self) -> str:
        cols = ", ".join(sorted(self._collections))
        return f"Database({self.name!r}: {cols})"

    # -- sessions -----------------------------------------------------------------

    def connect(self, **session_kwargs) -> "Session":
        """Open a :class:`~repro.api.session.Session` serving this database."""
        from .session import Session

        return Session(self, **session_kwargs)


class Catalog:
    """Named databases; the top of the serving hierarchy."""

    def __init__(self) -> None:
        self._databases: dict[str, Database] = {}
        self._lock = threading.Lock()

    def create(self, name: str) -> Database:
        """Create and register an empty database."""
        return self.register(Database(name))

    def register(self, db: Database) -> Database:
        with self._lock:
            if db.name in self._databases:
                raise ValueError(f"database {db.name!r} already in the catalog")
            self._databases[db.name] = db
        return db

    def drop(self, name: str) -> None:
        with self._lock:
            del self._databases[name]

    def __getitem__(self, name: str) -> Database:
        return self._databases[name]

    def __contains__(self, name: str) -> bool:
        return name in self._databases

    def __iter__(self) -> Iterator[Database]:
        return iter(list(self._databases.values()))

    def names(self) -> list[str]:
        return sorted(self._databases)

    def connect(self, name: str, **session_kwargs) -> "Session":
        """Open a session against the named database."""
        return self[name].connect(**session_kwargs)

    def __repr__(self) -> str:
        return f"Catalog({', '.join(self.names())})"
