"""Materialized views: results kept consistent by delta propagation.

A :class:`MaterializedView` pairs one view template (an NRA expression over
named base collections) with the runtime state its maintenance plan needs,
and exposes two operations: read the current result (:attr:`value`) and
:meth:`apply` a :class:`~repro.engine.incremental.changeset.Changeset`.

Runtime state, per :class:`~repro.engine.incremental.delta.DeltaOp` node:

* every counted node (``map``/``select``/``ext``/``join``/``union``) holds
  **support counts** -- for each output element, how many derivations
  currently produce it -- so a deletion removes an element from the output
  exactly when its last derivation disappears, with no recount;
* ``compose`` nodes (:func:`~repro.nra.derived.compose`, ``L o R``) hold
  their counts on packed pair codes in a :class:`_LinearState`: ``acc``
  indexes ``L`` by its ``snd``, ``base`` indexes ``R`` by its ``fst``, and
  ``counts`` holds, per output code, its derivations over ``L x R``.  The
  bilinear pass (:meth:`MaterializedView._compose_pass`) is the linear
  fixpoint's own probe, dict lookups and bit arithmetic per derivation,
  and the output's boundary is the codes whose count crossed zero;
* other ``join`` nodes additionally hold **hash indexes on both sides**
  (key value -> matching elements): an element indexes (or unindexes)
  itself on its own side, then counts its derivations against the other
  side's index, so a delta of ``k`` elements probes in ``O(k * matches)``
  instead of re-joining;
* ``fixpoint`` nodes (:func:`~repro.nra.derived.seeded_closure`'s loop,
  ``\\rr. rr U rr o R`` or ``rr U R o rr``, how a ``fix()`` is maintained)
  hold support counts on accumulator x ``R`` on dense ids
  (:class:`_LinearState`) and run one **delete/rederive** (DRed) pass over
  them per batch: over-delete everything with a derivation through a
  deleted element, re-prove the over-deleted elements the
  survivors still support, and continue semi-naively *from the new
  frontier* -- work scales with the affected derivation cone, not the
  result;
* a plan with any ``recompute`` node is not maintained node by node: the
  whole view runs in *recompute mode*, re-evaluating the template through
  the engine's vectorized backend on every relevant commit and diffing the
  result against what it served (``fallback_recomputes`` counts these).

Between nodes only **set-level deltas** flow (``+1`` when an element appears
in a node's output, ``-1`` when it disappears); multiplicities are private to
each node.  A commit's base deltas are the canonical rows, and their pair
codes, the engine's :class:`~repro.api.catalog.Snapshot` interned once for
the advance and every view (``Snapshot.rows``): a view applies only the
changeset its snapshot has just followed.  A fixpoint's or a composition's
(a *coded* node's) delta is on pair codes, and a coded parent takes its
children's deltas as codes -- a base's are the snapshot's -- so a value
node's pairs are packed only where it feeds a coded one, and a coded
node's decoded only where it feeds a value one.  A build is a commit's
pass from empty states, every base and constant entering whole.

**The output is rendered on read.**  Only the root has an output
``SetVal``, a rendering of the state above: ``apply`` records the root's
boundary (netted -- an insert undone by a delete cancels), and the
pending delta is spliced into the last rendered set
(:meth:`~repro.engine.interning.InternTable.splice`) when and only when
something reads it: :attr:`MaterializedView.value` / ``rows()`` /
``refresh``, a recompute-mode diff.  A coded root's ``pending`` holds
codes: the read decodes them (a code that left names a pair of the
rendered output; new pairs are stored in one batch), and the listeners get
a :class:`ViewDelta` that decodes on first access.  No node below the root
keeps an output or a pending delta -- maintenance reads none, and a
rebuild builds every node afresh -- but a constant, which never moves.  A
commit costs the derivation cone; a read costs O(|pending| log n) python
steps plus one C-level copy and is free when nothing changed.  This rests
on *a view being read less often than its bases are written*.
``len(view)`` is kept from the root delta and renders nothing.

Codes kept without their pairs follow the intern table's sweep contract
(:mod:`repro.engine.interning`).  A base's elements are held by the
snapshot's collection, a counted node's by its ``counts``, a constant's by
its output, and a coded node's codes by its children, by induction: each
is built from parts of the children's elements (a fixpoint's over its
derivations, a composition's directly).  The snapshot holds a commit's
deleted rows, which the advance cut from the collection and may have
swept after, until the next commit.  At the root a ``+1`` pending code is
present, so held so; a ``-1`` one names a pair of the rendered output.  An
undecoded :class:`ViewDelta` holds its codes' parts itself, and so does
the view between a maintenance pass that raised and the rebuild that
reads its pending codes.

All per-element evaluation (ext bodies, join keys, outputs) runs through
closures compiled by the engine's
:class:`~repro.engine.vectorized.compiler.PlanCompiler`, so a view shares the
engine's compile cache and intern table, and all state mutation happens under
the engine lock (the same contract every backend follows).

Exactness.  The maintained value is defined to equal a cold
``engine.run(template)`` after every changeset; the differential maintenance
oracle in ``tests/property/test_backend_differential.py`` enforces this.  A
fixpoint node maintains the *least* fixpoint, accepted only where the loop's
budget provably reaches it at every database state (:mod:`.delta`), so a
build is the maintenance pass from empty: no cold run verifies it.  Only a
recompute-mode view evaluates the template cold.
See DESIGN.md ("when maintenance loses") for the cost model.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Optional

from ...nra.ast import Expr
from ...nra.errors import NRAEvalError
from ...objects.values import SetVal, Value
from ...obs.metrics import Counters
from ...obs.trace import TRACER
from ..interning import CODE_BITS, CODE_MASK
from ..vectorized.batch import bind, expect_set, unbind
from .changeset import Changeset
from .delta import DeltaOp, derive, plan_of

#: A set-level delta: interned element (a coded node's, or one handed to a
#: coded parent: pair code) -> +1 (appeared) or -1 (disappeared).
SetDelta = dict


@dataclass(slots=True)
class ViewStats(Counters):
    """Counters for one view's lifetime of maintenance work."""

    delta_applies: int = 0        # changesets absorbed by delta propagation
    fallback_recomputes: int = 0  # whole-view rebuilds (recompute-mode applies, refresh)
    rows_inserted: int = 0        # result rows added across all applies
    rows_deleted: int = 0         # result rows removed across all applies
    seminaive_rounds: int = 0     # fixpoint continuation + over-deletion rounds
    dred_applies: int = 0         # fixpoint deletions absorbed by delete/rederive
    dred_overdeletes: int = 0     # elements over-deleted across all DRed passes
    dred_rederives: int = 0       # over-deleted elements re-proved by rederivation
    flat_index_applies: int = 0   # linear-fixpoint passes served by dense-id codes
    materializations: int = 0     # node outputs rendered (pending deltas folded on a read)

    def rows_touched(self) -> int:
        return self.rows_inserted + self.rows_deleted


class ViewDelta:
    """What one ``apply`` did to the view's result.

    ``inserted`` and ``deleted`` are the rows that joined and left it.  A
    view whose root is a linear fixpoint or a composition hands them over
    as pair codes and decodes them on their first access, under the engine
    lock; until then the delta holds the parts of its codes, so a sweep in
    between frees none of them.  ``n_inserted``, ``n_deleted`` and truth
    never decode: the session's stats observer, :class:`ViewStats` and the
    ``ivm-apply`` span read only those, so a commit nobody reads makes no
    pairs.  The
    commit's dense-id room check counts only the codes still pending on the
    view, so a decode long after it can still raise
    :class:`~repro.engine.interning.DenseIdLimitError`; a decode that
    raises leaves the delta on its codes.

    The ``dred_*`` fields carry the delete/rederive work of *this* apply
    (the view's :class:`ViewStats` hold the lifetime totals) so the
    ``on_apply`` observer -- the session stats aggregation -- sees per-commit
    deltas without diffing counters itself.
    """

    __slots__ = ("_inserted", "_deleted", "_codes", "dred_overdeleted", "dred_rederived")

    def __init__(self, inserted: tuple = (), deleted: tuple = ()) -> None:
        self._inserted, self._deleted = inserted, deleted
        #: ``(engine lock, intern table, the parts' values)`` while codes.
        self._codes: Optional[tuple] = None
        self.dred_overdeleted = 0
        self.dred_rederived = 0

    @classmethod
    def of_codes(cls, inserted: list, deleted: list, lock, it) -> "ViewDelta":
        """A delta on pair codes, decoded on first access."""
        delta = cls(inserted, deleted)
        delta._codes = (lock, it, it.parts_of(inserted + deleted))
        return delta

    def _decode(self) -> None:
        lock, it, _parts = self._codes
        with lock:
            if self._codes is not None:
                inserted = tuple(it.pairs_of(self._inserted))
                deleted = tuple(it.pairs_of(self._deleted))
                self._inserted, self._deleted, self._codes = inserted, deleted, None

    @property
    def inserted(self) -> tuple[Value, ...]:
        if self._codes is not None:
            self._decode()
        return self._inserted

    @property
    def deleted(self) -> tuple[Value, ...]:
        if self._codes is not None:
            self._decode()
        return self._deleted

    @property
    def n_inserted(self) -> int:
        return len(self._inserted)

    @property
    def n_deleted(self) -> int:
        return len(self._deleted)

    def __bool__(self) -> bool:
        return bool(self._inserted or self._deleted)

    def __repr__(self) -> str:
        return (f"<ViewDelta +{self.n_inserted} -{self.n_deleted}"
                f"{' (codes)' if self._codes is not None else ''}>")


class _NodeState:
    """Mutable runtime state of one DeltaOp node.

    The root's output set is *rendered on read*: a commit records the
    elements that joined or left (:meth:`moved`), and :attr:`out` splices
    them into the last rendered ``SetVal`` when something asks for it.  A
    coded root records pair codes, and the read decodes them first.  Below
    the root only a constant keeps an output (``rendered``), and no node
    records a delta.
    """

    __slots__ = ("it", "stats", "rendered", "pending", "counts", "lindex", "rindex",
                 "children", "flat")

    def __init__(self, it, stats: ViewStats) -> None:
        self.it = it          # the engine's intern table (renders splice there)
        self.stats = stats    # the owning view's counters
        self.rendered: Optional[SetVal] = None
        #: element (a node on codes': pair code) -> +1 (joined) / -1 (left)
        #: since ``rendered``, netted.
        self.pending: SetDelta = {}
        self.counts: Optional[dict] = None
        self.lindex: Optional[dict] = None
        self.rindex: Optional[dict] = None
        self.children: tuple["_NodeState", ...] = ()
        #: A fixpoint's or a composition's counted state, on dense ids.
        self.flat: Optional["_LinearState"] = None

    @property
    def out(self) -> Optional[SetVal]:
        """The node's current output (engine lock held): folds what is pending."""
        pending, it = self.pending, self.it
        if pending:
            ins = [v for v, dc in pending.items() if dc > 0]
            dels = [v for v, dc in pending.items() if dc < 0]
            if self.flat is not None:
                # A ``-1`` code's pair is in ``rendered``: a lookup.  The
                # ``+1`` codes' parts are the children's, and their pairs
                # not made yet are stored in one batch.
                ins, dels = it.pairs_of(ins), it.pairs_of(dels)
            self.rendered = it.splice(self.rendered, ins, dels)[0]
            pending.clear()
            self.stats.materializations += 1
        return self.rendered

    @out.setter
    def out(self, s: SetVal) -> None:
        self.rendered = s

    def moved(self, delta: SetDelta) -> None:
        """Record a set-level delta of this node's output; opposite moves cancel."""
        pending = self.pending
        if not pending:
            pending.update(delta)
            return
        for v, dc in delta.items():
            if pending.get(v) == -dc:
                del pending[v]
            else:
                pending[v] = dc


class _LinearState:
    """The counted state of a linear fixpoint or a composition, on dense ids.

    The step is :func:`~repro.nra.derived.seeded_closure`'s, ``rr U rr o R``
    or (``backward``) ``rr U R o rr`` -- the one linear step a view accepts.
    A composition ``L o R`` is that step's join alone: ``acc`` holds ``L``,
    ``base`` holds ``R``, ``counts`` the derivations over ``L x R``, and
    ``present`` and ``seeds`` stay empty.
    Every element of the fixpoint and of ``R`` is a pair of interned values,
    carried as the packed code ``(fst_dense_id << 32) | snd_dense_id``, and
    a derivation composes a left factor ``x`` with a right factor ``y``
    where ``snd x = fst y`` into ``(fst x, snd y)``: a probe is dict lookups
    and bit arithmetic -- no environment binds, no compiled-closure calls,
    no per-derivation pair interning.  Values are made only where the
    boundary (the elements that actually enter or leave the result) is
    read: the node's output, a parent, a listener's delta.

    ``counts`` holds, per derived code, its derivations over accumulator x
    ``R``: pairs ``(a, b)`` of a code ``a`` of the fixpoint and ``b`` of
    ``R`` whose keys meet.  ``acc`` indexes the fixpoint by its join key and
    ``base`` indexes ``R`` by its own, so a tuple joining either side finds
    its partners in one probe.  The standing invariant is ``present = seeds
    U support(counts)``.

    It holds no value itself, and what it names stays alive without it.
    Every code in ``present`` -- and in the counts and the ``acc`` buckets
    -- is built from parts of the current seed's and ``R``'s elements (by
    induction over the derivations), ``seeds`` and the ``base`` buckets name
    those elements themselves, and every key id is a part of one.  The
    children hold those elements (a base's collection, a counted child's
    counts, a constant's output; a coded child names only parts its own
    children hold), so an intern-table sweep frees none of these ids.
    """

    __slots__ = ("backward", "counts", "acc", "base", "present", "seeds")

    def __init__(self, backward: bool) -> None:
        # ``R o rr`` joins the accumulator on its fst: it is the right factor.
        self.backward = backward
        self.counts: dict[int, int] = {}    # out code -> derivation count
        self.acc: dict[int, dict] = {}      # key id -> {fixpoint code}
        self.base: dict[int, dict] = {}     # key id -> {code of R}
        self.present: set[int] = set()      # codes of the current fixpoint
        self.seeds: set[int] = set()        # codes of the seed child's output

    def probe(self, code: int, on_acc: bool, sign: int, touched: list) -> None:
        """Index (``+1``) or unindex (``-1``) ``code`` on its side, then
        count its derivations against the other side's index, appending
        each output to ``touched`` (with multiplicity): the next frontier."""
        own, other = (self.acc, self.base) if on_acc else (self.base, self.acc)
        left = on_acc != self.backward  # ``code`` is the left factor
        k = code & CODE_MASK if left else code >> CODE_BITS
        if sign > 0:
            own.setdefault(k, {})[code] = None
        else:
            bucket = own[k]
            del bucket[code]
            if not bucket:
                del own[k]
        matches = other.get(k)
        if not matches:
            return
        if left:
            hi = code >> CODE_BITS << CODE_BITS
            derived = [hi | (y & CODE_MASK) for y in matches]
        else:
            lo = code & CODE_MASK
            derived = [(y >> CODE_BITS << CODE_BITS) | lo for y in matches]
        counts = self.counts
        for z in derived:
            c = counts.get(z, 0) + sign
            if c > 0:
                counts[z] = c
            elif c == 0:
                del counts[z]
            else:
                raise AssertionError(
                    "negative pair-code support count: a derivation was dropped twice"
                )
        touched += derived


class MaterializedView:
    """A standing query whose result is maintained under base-table updates."""

    def __init__(
        self,
        engine,
        template: Expr,
        env: dict,
        bases: frozenset[str],
        name: str = "view",
        on_apply: Optional[Callable[["MaterializedView", ViewDelta, bool], None]] = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.template = template
        self.bases = frozenset(bases)
        self.stats = ViewStats()
        self.stale = False
        self.closed = False
        #: A maintenance pass raised part way: the state is not the
        #: committed one, and the next read or commit rebuilds it.
        self._rebuild_due = False
        #: While a rebuild is due: the parts of the root's pending codes.
        self._held: list = []
        self._on_apply = on_apply
        # Extra per-apply observers (same signature as on_apply).  The wire
        # service attaches one per remote subscription to turn view deltas
        # into change-notification push frames; the session's stats observer
        # stays the dedicated on_apply slot so its accounting cannot be
        # unregistered by accident.
        self._listeners: list = []
        self._registry = None
        self._snapshot = None
        with engine.lock:
            # The view maintains the *optimized* template: the plan a query
            # over it runs (a ``closure`` in it is maintained linearly).
            self.expr = engine.optimize(template).optimized
            self._vec = engine._vec()
            self._it = self._vec.interner
            self._env = {k: self._it.intern(v) if isinstance(v, Value) else v
                         for k, v in env.items()}
            self.plan_ops = derive(self.expr, self.bases)
            # Delta mode needs a fully non-recompute plan over a set result.
            self.recompute_only = not self.plan_ops.maintainable()
            self._build()

    # -- public surface --------------------------------------------------------

    @property
    def value(self) -> SetVal:
        """The current (maintained) result, a canonical interned set.

        Rendered here, not at commit: the first read after a run of commits
        splices their net root delta into the last value read.  After a
        maintenance pass that raised, the read is a rebuild from the
        committed bases instead (:meth:`_catch_up`).
        """
        self._check_usable()
        if self._rebuild_due:
            self._catch_up()
        with self.engine.lock:
            return self._root.out

    def __len__(self) -> int:
        """Rows in the current result, kept from the root delta (no render)."""
        if self._rebuild_due and not (self.closed or self.stale):
            self._catch_up()
        return self._size

    def _catch_up(self) -> None:
        """The rebuild a read makes after a maintenance pass raised.

        The listeners get its delta as they get a commit's -- under the
        database's commit lock, outside the engine lock, flagged a fallback
        -- so a subscriber's mirror follows the rebuild too.  The session's
        stats observer does not: this is a read, not an ``apply``.
        """
        registry = self._registry
        with registry._commit_lock if registry is not None else nullcontext():
            with self.engine.lock:
                if not self._rebuild_due:
                    return
                delta = self.refresh()
            for listener in list(self._listeners):
                listener(self, delta, True)

    def rows(self) -> frozenset:
        """The result as plain python rows (order-free comparison aid)."""
        from ...objects.values import rows_of

        return frozenset(rows_of(self.value.elements))

    def maintenance_plan(self):
        """The ``ivm-*`` plan tree this view maintains by (for explain/tests)."""
        return plan_of(self.plan_ops)

    def depends_on(self, collection: str) -> bool:
        return collection in self.bases

    def apply(self, changeset: Changeset) -> ViewDelta:
        """Absorb one changeset; returns what changed in the result."""
        self._check_usable()
        if not changeset.touches(self.bases):
            return ViewDelta()
        with self.engine.lock:
            with TRACER.span("ivm-apply", view=self.name) as sp:
                # The database advanced the engine's snapshot by this
                # changeset just before delivering it here: the written
                # bases are there, as a cold read would intern them, and
                # so are the commit's rows, interned once for every view.
                snapshot = self._snapshot
                assert snapshot.changeset is changeset, (
                    "a view applies only the commit its snapshot has just followed")
                env, current = self._env, snapshot.env
                for name in changeset:
                    if name in env:
                        env[name] = current[name]
                stats = self.stats
                fallback = self.recompute_only or self._rebuild_due
                over, rederived = stats.dred_overdeletes, stats.dred_rederives
                if fallback:
                    delta = self._rebuild()
                    stats.fallback_recomputes += 1
                else:
                    try:
                        # Each written base's delta is the canonical rows, and
                        # their codes, the snapshot interned for this commit.
                        delta = self._commit_root(
                            self._apply_node(self.plan_ops, self._root, snapshot.rows))
                    except BaseException:
                        # Half maintained: the bases above are this commit's,
                        # so a rebuild from them is the committed state.
                        self._rebuild_due = True
                        if self._root.flat is not None:
                            # The children may have moved on: until the
                            # rebuild reads the root, hold its codes' parts.
                            self._held = self._it.parts_of(list(self._root.pending))
                        raise
                delta.dred_overdeleted = stats.dred_overdeletes - over
                delta.dred_rederived = stats.dred_rederives - rederived
                stats.delta_applies += 1
                stats.rows_inserted += delta.n_inserted
                stats.rows_deleted += delta.n_deleted
                if sp is not None:
                    sp.set(
                        inserted=delta.n_inserted,
                        deleted=delta.n_deleted,
                        dred_overdeleted=delta.dred_overdeleted,
                        dred_rederived=delta.dred_rederived,
                        fallback=fallback,
                    )
        if self._on_apply is not None:
            self._on_apply(self, delta, fallback)
        for listener in list(self._listeners):
            listener(self, delta, fallback)
        return delta

    def refresh(self) -> ViewDelta:
        """Full rebuild from the current base collections (always sound)."""
        self._check_usable()
        with self.engine.lock:
            self.stats.fallback_recomputes += 1
            return self._rebuild()

    def add_listener(
        self, fn: Callable[["MaterializedView", ViewDelta, bool], None]
    ) -> None:
        """Subscribe an observer called after every successful ``apply``.

        Called with ``(view, delta, fallback)`` outside the engine lock, in
        commit order (the database commit lock serializes applies).  Raising
        from a listener propagates to the committer; observers that relay
        elsewhere (e.g. the service's push frames) should catch their own
        transport errors.
        """
        self._listeners.append(fn)

    def remove_listener(self, fn) -> None:
        """Unsubscribe; missing observers are ignored (idempotent close paths)."""
        if fn in self._listeners:
            self._listeners.remove(fn)

    def close(self) -> None:
        """Stop serving and maintenance; unregisters from the database."""
        self.closed = True
        self._listeners.clear()
        self._snapshot = None
        registry, self._registry = self._registry, None
        if registry is not None:
            registry.remove_view(self)

    def bind_registry(self, registry) -> None:
        """Attach the object (a Database) ``close`` should unregister from.

        Its snapshot for this engine is where ``apply`` reads the base
        collections from; the view holds it (so it keeps following commits)
        until closed.
        """
        self._registry = registry
        self._snapshot = registry.snapshot(self.engine)

    def mark_stale(self) -> None:
        """A depended-on collection was dropped: refuse further service."""
        self.stale = True

    # The Database commit hook (duck-typed; see repro.api.catalog).  Stale
    # views are skipped, not failed: the commit already happened, and a
    # RuntimeError here would report a succeeded commit as failed while
    # starving every later-registered view of the changeset.
    def _on_commit(self, changeset: Changeset) -> None:
        if not self.closed and not self.stale and changeset.touches(self.bases):
            self.apply(changeset)

    def _check_usable(self) -> None:
        if self.closed:
            raise RuntimeError(f"view {self.name!r} is closed")
        if self.stale:
            raise RuntimeError(
                f"view {self.name!r} is stale (a base collection was dropped); "
                "re-materialize it"
            )

    def __repr__(self) -> str:
        mode = "recompute" if self.recompute_only else "delta"
        return (f"<MaterializedView {self.name!r} mode={mode} "
                f"rows={len(self)} applies={self.stats.delta_applies}>")

    def _build(self) -> None:
        """The view's state from the current bases: in delta mode the
        maintenance build alone, each node's pass from empty, which equals a
        cold run by the budget proofs (:mod:`.delta`) without running one."""
        if self.recompute_only:
            root = _NodeState(self._it, self.stats)
            root.out = expect_set(self._vec.run(self.expr, env=self._env),
                                  f"view {self.name!r}")
        else:
            root = self._init_node(self.plan_ops)
            out = self._apply_node(self.plan_ops, root, None)
            if root.flat is not None:  # rendered once from its codes
                root.out = self._it.set_from_pair_codes(out)
            elif root.rendered is None:  # a constant has its value
                root.out = self._it.mkset(out)
        self._root = root
        self._size = len(root.out.elements)
        self._rebuild_due = False
        self._held = []

    def _rebuild(self) -> ViewDelta:
        """Rebuild from the current bases; the diff against what was served."""
        old = self._root.out
        self._build()
        new, it = self._root.out, self._it
        return ViewDelta(it.difference(new, old).elements, it.difference(old, new).elements)

    def _commit_root(self, root_delta: SetDelta) -> ViewDelta:
        """Record the root's delta, pending until a read; the listeners' delta."""
        root, coded = self._root, self._root.flat is not None
        ins, dels = _moving(root_delta, 1), _moving(root_delta, -1)
        if coded:
            # Decoding what will be pending and this delta needs at most this
            # many new ids: a commit past the limit stops here, recording nothing.
            self._it.check_room(len(root.pending) + len(root_delta))
        root.moved(root_delta)
        self._size += len(ins) - len(dels)
        if coded:  # pair codes, decoded when read
            return ViewDelta.of_codes(ins, dels, self.engine.lock, self._it)
        return ViewDelta(tuple(ins), tuple(dels))

    # -- compiled-closure plumbing --------------------------------------------

    def _fn(self, e: Expr):
        return self._vec.compile(e).fn

    # -- initial state build ---------------------------------------------------

    def _init_node(self, op: DeltaOp) -> _NodeState:
        """A node's empty state, which a build passes every base into (:meth:`_apply_node`)."""
        st = _NodeState(self._it, self.stats)
        st.children = tuple(map(self._init_node, op.children))
        if op.kind in ("fixpoint", "compose"):
            st.flat = _LinearState(op.backward)
        elif op.kind not in ("static", "base"):
            st.counts = {}
            if op.kind == "join":
                st.lindex, st.rindex = {}, {}
        return st

    # -- delta propagation -----------------------------------------------------

    def _apply_node(self, op: DeltaOp, st: _NodeState, deltas: Optional[dict],
                    proj: Optional[str] = None) -> SetDelta:
        """One node's set-level delta for a commit's base ``deltas``
        (``Snapshot.rows``), as its parent takes it; with ``deltas``
        ``None``, the build's: every base and constant enters whole.

        A coded node -- a fixpoint or a composition -- hands its delta on
        pair codes, and a value parent decodes it (:meth:`_values`).  Any
        other node hands values, or under a coded parent (``proj``: the
        projection that parent's step takes of its rows) their codes: a
        base the snapshot's, any other node's packed by :meth:`_codes`; a
        non-pair raises the error a cold run's ``proj`` raises.  Only the
        root records its delta (:meth:`_commit_root`)."""
        kind = op.kind
        if kind in ("static", "base"):
            if deltas is not None:
                rows = deltas.get(op.source) if kind == "base" else None
                if rows is None:
                    return {}
                ins, dels, ins_codes, del_codes = rows
                if proj is not None and None not in ins_codes and None not in del_codes:
                    ins, dels, proj = ins_codes, del_codes, None  # on codes already
            else:
                s = expect_set(self._fn(op.expr)(self._env), "maintenance subexpression")
                if kind == "static":  # it holds what a coded parent keeps of it
                    st.out = s
                ins, dels = s.elements, ()
            delta = dict.fromkeys(ins, 1)
            delta.update(dict.fromkeys(dels, -1))
            return delta if proj is None else self._codes(delta, proj)

        child_deltas = [self._apply_node(c, cst, deltas, p)
                        for c, cst, p in zip(op.children, st.children, _projections(op))]
        if kind in ("fixpoint", "compose"):
            if not any(child_deltas):
                return {}
            # The counted pass knows its exact boundary (what fell for good,
            # what is genuinely new): no full-set diff, no render, no pair.
            if kind == "fixpoint":
                fell, added = self._linear_pass(st, *child_deltas)
                if deltas is not None:  # a build is no apply
                    self.stats.flat_index_applies += 1
            else:
                fell, added = self._compose_pass(st, *child_deltas)
            delta = dict.fromkeys(fell, -1)
            delta.update(dict.fromkeys(added, 1))
            return delta
        child_deltas = [self._values(cst, d) for cst, d in zip(st.children, child_deltas)]
        if kind in ("map", "select", "ext"):
            (d,) = child_deltas
            acc: SetDelta = {}
            if d:
                self._ext_accumulate(op, acc, _moving(d, -1), -1)
                self._ext_accumulate(op, acc, _moving(d, 1), +1)
            delta = self._commit_counts(st, acc)
        elif kind == "union":
            acc = {}
            for d in child_deltas:
                for v, dc in d.items():
                    acc[v] = acc.get(v, 0) + dc
            delta = self._commit_counts(st, acc)
        elif kind == "join":
            delta = self._apply_join(op, st, child_deltas[0], child_deltas[1])
        else:
            raise AssertionError(f"unknown delta op kind {kind!r}")
        return delta if proj is None else self._codes(delta, proj)

    def _values(self, st: _NodeState, delta: SetDelta) -> SetDelta:
        """A child's delta for a value parent: a coded child's codes decoded."""
        if st.flat is None or not delta:
            return delta
        return dict(zip(self._it.pairs_of(list(delta)), delta.values()))

    def _commit_counts(self, st: _NodeState, acc: SetDelta) -> SetDelta:
        """Fold signed derivation counts into the node; emit the set delta."""
        counts = st.counts
        out_delta: SetDelta = {}
        for v, dc in acc.items():
            old = counts.get(v, 0)
            new = old + dc
            if new < 0:
                raise AssertionError(
                    "negative support count: changeset violated net-effect "
                    "invariants"
                )
            if new:
                counts[v] = new
            elif old:
                del counts[v]
            if (old > 0) != (new > 0):
                out_delta[v] = 1 if new else -1
        return out_delta

    # -- ext family ------------------------------------------------------------

    def _ext_accumulate(self, op: DeltaOp, acc: SetDelta, elements, sign: int) -> None:
        """Add ``sign`` per body-derived element, for each source element."""
        if not elements:
            return
        env = self._env
        body_fn = self._fn(op.body)
        token = bind(env, op.var)
        try:
            for x in elements:
                env[op.var] = x
                piece = expect_set(body_fn(env), "ext maintenance body")
                for y in piece.elements:
                    acc[y] = acc.get(y, 0) + sign
        finally:
            unbind(env, op.var, token)

    # -- join ------------------------------------------------------------------

    def _join_probe(
        self, op: DeltaOp, st: _NodeState, left: bool, elements, sign: int, counts: dict
    ) -> None:
        """Index (``+1``) or unindex (``-1``) each element on its own side,
        then count its derivations against the other side's index."""
        env = self._env
        out_fn = self._fn(op.out)
        if left:
            key_fn, var, other_var = self._fn(op.lkey), op.var, op.rvar
            own, other = st.lindex, st.rindex
        else:
            key_fn, var, other_var = self._fn(op.rkey), op.rvar, op.var
            own, other = st.rindex, st.lindex
        tok, other_tok = bind(env, var), bind(env, other_var)
        try:
            for x in elements:
                env[var] = x
                k = key_fn(env)
                if sign > 0:
                    own.setdefault(k, {})[x] = None
                else:
                    bucket = own.get(k)
                    if bucket is not None:
                        bucket.pop(x, None)
                        if not bucket:
                            del own[k]
                matches = other.get(k)
                if matches:
                    for y in matches:
                        env[other_var] = y
                        out = out_fn(env)
                        counts[out] = counts.get(out, 0) + sign
        finally:
            unbind(env, other_var, other_tok)
            unbind(env, var, tok)

    def _apply_join(
        self, op: DeltaOp, st: _NodeState, dl: SetDelta, dr: SetDelta
    ) -> SetDelta:
        """Bilinear rule: ``dL >< R_old``, then ``L_new >< dR``.

        The left delta probes the *old* right index while the left index
        advances to its new contents; the right delta then probes the
        *updated* left index.  Each side applies its deletes, then its inserts.
        """
        acc: SetDelta = {}
        for left, d in ((True, dl), (False, dr)):
            if d:
                self._join_probe(op, st, left, _moving(d, -1), -1, acc)
                self._join_probe(op, st, left, _moving(d, 1), +1, acc)
        return self._commit_counts(st, acc)

    # -- pair codes ------------------------------------------------------------

    def _codes(self, delta: SetDelta, proj: str) -> SetDelta:
        """``delta`` on its pairs' packed codes, for a coded parent; a
        non-pair raises the error a cold run's projection ``proj`` raises."""
        parts, dense = self._it.pair_parts(), self._it.dense_id
        out = {}
        for v, dc in delta.items():
            try:
                f, s = parts[dense(v)]
            except KeyError:
                raise NRAEvalError(f"{proj}: expected a pair, got {v!r}") from None
            out[(f << CODE_BITS) | s] = dc
        return out

    def _compose_pass(self, st: _NodeState, dl: SetDelta, dr: SetDelta) -> tuple[list, list]:
        """The compose node's one pass: the bilinear rule ``dL o R_old U
        L_new o dR`` on pair codes, for deltas ``dl`` of ``L`` and ``dr`` of
        ``R``.

        ``L``'s deletes, then its inserts, unindex or index themselves on
        ``acc`` (by ``snd``) and count their derivations against ``R``'s old
        index ``base``; then ``R``'s deletes and inserts do the same on
        ``base`` (by ``fst``) against the new ``acc``, so every derivation
        is counted once -- :meth:`_LinearState.probe` is exactly this step.
        Returns the boundary as codes -- those whose count fell to zero,
        those that rose from it.  The build is this pass from empty: ``L``
        meets an empty index, then ``R`` derives every pair.
        """
        probe, counts = st.flat.probe, st.flat.counts
        lost: list = []
        gained: list = []
        for on_l, d in ((True, dl), (False, dr)):
            for sign, touched in ((-1, lost), (1, gained)):
                for c in _moving(d, sign):
                    probe(c, on_l, sign, touched)
        net = Counter(gained)
        net.subtract(lost)
        fell, added = [], []
        for z, n in net.items():
            if n:
                if z not in counts:
                    fell.append(z)
                elif counts[z] == n:
                    added.append(z)
        return fell, added

    # -- linear fixpoint (``fix()``, maintained as the linear closure) -----------

    def _linear_pass(self, st: _NodeState, d: SetDelta, dr: SetDelta) -> tuple[list, list]:
        """Delete/rederive (DRed) over the counts: the fixpoint node's one
        pass, for a seed delta ``d`` and a delta ``dr`` of the step's
        relation ``R``.

        **Over-delete**: a deleted row of ``R`` leaves its index and
        decrements the derivations it carried (probing the old fixpoint's
        index); those outputs and the deleted seeds fall, and the walk
        follows every derivation through a fallen code, unindexing it and
        decrementing the counts it carried -- when the walk ends, a fallen
        code's remaining count is exactly its support among the survivors
        and the new ``R``.  The over-approximation is on purpose: ignoring
        alternative support while walking is what breaks cyclic
        self-support.  **Rederive**: the fallen codes still in the
        (already-maintained) seed or with surviving support re-enter the
        counted continuation,
        with the inserted seeds and the outputs of the inserted rows of
        ``R`` against the survivors; each code joins the fixpoint, indexes
        itself and probes ``R`` once, so every derivation is counted once.
        Returns the boundary as codes -- what fell for good, what is
        genuinely new.

        With nothing deleted the over-delete walk is empty: an insert-only
        batch is the counted continuation alone, and the node's build is
        this pass over the seed and ``R`` into a fresh :class:`_LinearState`.
        Work scales with the affected derivation cone, not the result; when
        the cone *is* the result (a hub deletion) the pass costs about a
        recompute -- see DESIGN.md, "when maintenance loses".  The ``dred_*``
        counters count only batches that delete.
        """
        lin = st.flat
        present, counts, seeds, probe = lin.present, lin.counts, lin.seeds, lin.probe
        s_ins, s_del = _moving(d, 1), _moving(d, -1)
        r_ins, r_del = _moving(dr, 1), _moving(dr, -1)
        seeds.difference_update(s_del)
        touched = [c for c in s_del if c in present]
        for b in r_del:
            probe(b, False, -1, touched)
        over: dict = {}
        rounds = 0
        while touched:
            rounds += 1
            frontier, touched = touched, []
            for c in frontier:
                if c not in over:
                    over[c] = None
                    probe(c, True, -1, touched)
        present.difference_update(over)
        seeds.update(s_ins)
        touched = [c for c in over if c in seeds or c in counts]
        touched += s_ins
        for b in r_ins:
            probe(b, False, 1, touched)
        added: list = []
        while touched:
            rounds += 1
            frontier, touched = touched, []
            for c in frontier:
                if c not in present:
                    present.add(c)
                    added.append(c)
                    probe(c, True, 1, touched)
        self.stats.seminaive_rounds += rounds
        if s_del or r_del:
            self.stats.dred_applies += 1
            self.stats.dred_overdeletes += len(over)
            self.stats.dred_rederives += sum(1 for c in over if c in present)
        return ([c for c in over if c not in present],
                [c for c in added if c not in over])


def _moving(delta: SetDelta, sign: int) -> list:
    """The elements (or codes) of ``delta`` that join (``sign`` > 0) or leave."""
    return [v for v, dc in delta.items() if dc * sign > 0]


def _projections(op: DeltaOp) -> tuple:
    """What ``op`` takes of each child's rows: for a coded node the
    projection its step's join key takes (the error a non-pair raises), for
    any other node ``None``, the values themselves."""
    if op.kind == "fixpoint":  # the accumulator's (seeded from the first) and R's
        return ("pi1", "pi2") if op.backward else ("pi2", "pi1")
    if op.kind == "compose":   # L by its snd, R by its fst
        return ("pi2", "pi1")
    return (None,) * len(op.children)
