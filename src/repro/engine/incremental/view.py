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
* ``join`` nodes additionally hold **hash indexes on both sides**
  (key value -> matching elements).  One probe serves the build and every
  batch: an element indexes (or unindexes) itself on its own side, then
  counts its derivations against the other side's index, so a delta of
  ``k`` elements probes in ``O(k * matches)`` instead of re-joining, and
  the build is the right side, then the left side, probed into empty
  indexes;
* ``fixpoint`` nodes hold the current fixpoint set and the compiler's step
  runner for the node's :class:`~repro.engine.shapes.StepShape`, and run
  one pass per batch, **delete/rederive** (DRed): an over-deletion pass
  propagates the deleted elements through the loop's frontier terms to drop
  everything with a derivation through a deleted element, a rederivation
  pass re-proves the over-deleted elements still supported by the
  survivors, and the runner continues semi-naively *from the new frontier*
  (the survivors are the accumulator, so converged work is never
  re-derived) -- work scales with the affected derivation cone, not the
  result (see :meth:`MaterializedView._dred_fixpoint`).  An insert-only
  batch is that pass with nothing deleted, and the build is that pass from
  an empty fixpoint with the seed inserted.  An *indexed* fixpoint (the
  shape's ``self_join``, ``fix()``'s repeated squaring) runs the same pass
  over counted two-sided indexes of its own output on dense ids
  (:class:`_FlatIJoinState`), so it costs index probes over the derivation
  cone, its build included;
* a plan with any ``recompute`` node is not maintained node by node: the
  whole view runs in *recompute mode*, re-evaluating the template through
  the engine's vectorized backend on every relevant commit and diffing the
  result against what it served (``fallback_recomputes`` counts these).

Between nodes only **set-level deltas** flow (``+1`` when an element appears
in a node's output, ``-1`` when it disappears); multiplicities are private to
each node.

**Outputs are rendered on read.**  A node's output ``SetVal`` is a rendering
of the state above, not a second copy kept current per commit: ``apply``
records the boundary elements that joined or left (netted -- an insert
undone by a delete cancels) and the pending delta is spliced into the last
rendered set, by bisection over cached sort keys
(:meth:`~repro.engine.interning.InternTable.splice`), when and only when
something reads it: :attr:`MaterializedView.value` / ``rows()`` /
``refresh``, a recompute-mode diff, the generic (non-indexed)
fixpoint pass.  A commit therefore costs the derivation cone;
a read costs O(|pending| log n) python steps plus one C-level copy and is
free when nothing changed.  The property this rests on is that *a view is
read less often than its bases are written*; a reader after every commit
pays one splice per commit where an eager output paid one merge.
``len(view)`` is kept from the root delta and renders nothing.

All per-element evaluation (ext bodies, join keys, outputs,
frontier terms) and every fixpoint continuation runs through closures and
step runners compiled by the engine's
:class:`~repro.engine.vectorized.compiler.PlanCompiler`, so a view shares the
engine's compile cache and intern table, and all state mutation happens under
the engine lock (the same contract every backend follows).

Exactness.  The maintained value is defined to equal a cold
``engine.run(template)`` after every changeset; the differential maintenance
oracle in ``tests/property/test_backend_differential.py`` enforces this.  For
fixpoint nodes the initial build *verifies* the equality once (the semi-naive
least fixpoint against the cold evaluation, whose iteration budget could in
principle stop short of convergence); a view whose cold value is not a
fixpoint degrades to whole-view recompute mode instead of serving a superset.
See DESIGN.md ("when maintenance loses") for the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ...nra.ast import Expr
from ...objects.values import SetVal, Value
from ...obs.metrics import Counters
from ...obs.trace import TRACER
from ..interning import CODE_BITS, CODE_MASK
from ..vectorized.batch import bind, expect_set, unbind
from .changeset import Changeset
from .delta import DeltaOp, derive, maintenance_plan

#: A set-level delta: interned element -> +1 (appeared) or -1 (disappeared).
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
    flat_index_applies: int = 0   # indexed-fixpoint passes served by dense-id codes
    materializations: int = 0     # node outputs rendered (pending deltas folded on a read)

    def rows_touched(self) -> int:
        return self.rows_inserted + self.rows_deleted


@dataclass
class ViewDelta:
    """What one ``apply`` did to the view's result.

    The ``dred_*`` fields carry the delete/rederive work of *this* apply
    (the view's :class:`ViewStats` hold the lifetime totals) so the
    ``on_apply`` observer -- the session stats aggregation -- sees per-commit
    deltas without diffing counters itself.
    """

    inserted: tuple[Value, ...] = ()
    deleted: tuple[Value, ...] = ()
    dred_overdeleted: int = 0
    dred_rederived: int = 0

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)


class _NodeState:
    """Mutable runtime state of one DeltaOp node.

    The node's output set is *rendered on read*: maintenance records the
    elements that joined or left (:meth:`moved`), and :attr:`out` splices
    them into the last rendered ``SetVal`` when something asks for it.
    """

    __slots__ = ("it", "stats", "rendered", "pending", "counts", "lindex",
                 "rindex", "children", "flat", "runner")

    def __init__(self, it, stats: ViewStats) -> None:
        self.it = it          # the engine's intern table (renders splice there)
        self.stats = stats    # the owning view's counters
        self.rendered: Optional[SetVal] = None
        #: element -> +1 (joined) / -1 (left) since ``rendered``, netted.
        self.pending: SetDelta = {}
        self.counts: Optional[dict] = None
        self.lindex: Optional[dict] = None
        self.rindex: Optional[dict] = None
        self.children: tuple["_NodeState", ...] = ()
        #: The counted indexes of an indexed fixpoint, on dense ids; ``None``
        #: (any other fixpoint, or one that left the pair domain) runs the
        #: generic frontier-term passes.
        self.flat: Optional["_FlatIJoinState"] = None
        #: A fixpoint's step runner, compiled by the engine's compiler: its
        #: ``resume`` builds and continues the fixpoint.
        self.runner = None

    @property
    def out(self) -> Optional[SetVal]:
        """The node's current output (engine lock held): folds what is pending."""
        pending = self.pending
        if pending:
            self.rendered = self.it.splice(
                self.rendered,
                [v for v, dc in pending.items() if dc > 0],
                [v for v, dc in pending.items() if dc < 0],
            )[0]
            pending.clear()
            self.stats.materializations += 1
        return self.rendered

    @out.setter
    def out(self, s: SetVal) -> None:
        self.rendered = s

    def moved(self, delta: SetDelta) -> None:
        """Record a set-level delta of this node's output; opposite moves cancel."""
        pending = self.pending
        for v, dc in delta.items():
            if pending.get(v) == -dc:
                del pending[v]
            else:
                pending[v] = dc


class _FlatIJoinState:
    """The counted two-sided indexes of an indexed fixpoint, on dense ids.

    The PR-7 flat representation applied to maintenance state: every element
    of the fixpoint is a pair of interned values, carried as the packed code
    ``(fst_dense_id << 32) | snd_dense_id``; join keys and derivation
    outputs are projection chains, so a cone probe is dict lookups and
    integer packing -- no environment binds, no compiled-closure calls, no
    per-derivation pair interning.  Values are materialized only at the
    boundaries (the elements that actually enter or leave the result).

    Built empty for a fixpoint the plan marks indexed and filled by the
    node's one pass, ``MaterializedView._ijoin_dred``, over the seed; the
    standing invariant is ``present = seeds U support(counts)``.  Any
    element or key outside the flat pair domain makes a pass decline
    (``None``) before the node's output moves, and the node continues on
    the generic frontier-term pass, which is always sound.
    """

    __slots__ = ("parts", "probe", "counts", "lindex", "rindex", "present",
                 "seeds")

    def __init__(self, parts: dict, spec):
        self.parts = parts          # live pair-part view of the intern table
        #: The self-join ``spec``'s probe plan (:attr:`FlatTermSpec.probe`):
        #: whether each output component is over the left element, then the
        #: left key, right key and output paths as (head step picks ``fst``,
        #: the part walk after it) -- a one-step path, the closure's every
        #: path, is a shift or a mask.
        self.probe = spec.probe
        self.counts: dict[int, int] = {}       # out code -> derivation count
        self.lindex: dict[int, dict] = {}      # key id -> {element code}
        self.rindex: dict[int, dict] = {}
        self.present: set[int] = set()         # codes of the current fixpoint
        self.seeds: set[int] = set()           # codes of the child (seed) set,
                                               # maintained from batch deltas

    def walk(self, d: int, rest) -> int:
        """Follow the part steps ``rest`` from dense id ``d`` (KeyError on non-pair)."""
        parts = self.parts
        for step in rest:
            d = parts[d][0 if step == "f" else 1]
        return d

    def count(self, code: int, sign: int, touched: list) -> None:
        """Count the join derivations pairing ``code`` with the indexed fixpoint.

        ``sign=+1`` indexes ``code`` *before* probing, so the self-derivation
        is found exactly once (by the left-role probe); ``sign=-1`` probes
        first and unindexes ``code`` last -- the exact mirror -- so walking a
        set of removals decrements every derivation exactly once.  Each
        derivation's output is appended to ``touched`` (with multiplicity);
        callers use it as the next frontier.  A ``KeyError`` means a key
        path hit a non-pair.
        """
        a_left, b_left, (lf, lrest), (rf, rrest), (af, arest), (bf, brest) = self.probe
        walk = self.walk
        lk = code >> CODE_BITS if lf else code & CODE_MASK
        if lrest:
            lk = walk(lk, lrest)
        rk = code >> CODE_BITS if rf else code & CODE_MASK
        if rrest:
            rk = walk(rk, rrest)
        counts, lindex, rindex = self.counts, self.lindex, self.rindex
        if sign > 0:
            lindex.setdefault(lk, {})[code] = None
            rindex.setdefault(rk, {})[code] = None
        # ``code`` joins as the left element against rindex[lk], then as the
        # right one against lindex[rk]; each match derives one output code.
        for left_role, matches in ((True, rindex.get(lk)), (False, lindex.get(rk))):
            if not matches:
                continue
            for y in list(matches):
                if not left_role and y == code:
                    continue  # the self-pair was counted in the left role
                a = code if a_left == left_role else y
                a = a >> CODE_BITS if af else a & CODE_MASK
                if arest:
                    a = walk(a, arest)
                b = code if b_left == left_role else y
                b = b >> CODE_BITS if bf else b & CODE_MASK
                if brest:
                    b = walk(b, brest)
                z = (a << CODE_BITS) | b
                c = counts.get(z, 0) + sign
                if c > 0:
                    counts[z] = c
                elif c == 0:
                    counts.pop(z, None)
                else:
                    raise AssertionError(
                        "negative fixpoint support count: a derivation "
                        "was dropped twice"
                    )
                touched.append(z)
        if sign < 0:
            bucket = lindex.get(lk)
            if bucket is not None:
                bucket.pop(code, None)
                if not bucket:
                    del lindex[lk]
            bucket = rindex.get(rk)
            if bucket is not None:
                bucket.pop(code, None)
                if not bucket:
                    del rindex[rk]


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
            # The view maintains the *optimized* template, rewritten with
            # the view rules: a query's rules minus the ones that would
            # trade away a shape the delta state below is built for.
            self.expr = engine.optimize_view(template)
            self._vec = engine._vec()
            self._it = self._vec.interner
            self._env = {k: self._it.intern(v) if isinstance(v, Value) else v
                         for k, v in env.items()}
            self.plan_ops = derive(self.expr, self.bases)
            # Delta mode needs a fully non-recompute plan over a set result.
            self.recompute_only = not self.plan_ops.maintainable()
            self._root = _NodeState(self._it, self.stats)
            self._root.out = self._it.empty_set
            self._rebuild()

    # -- public surface --------------------------------------------------------

    @property
    def value(self) -> SetVal:
        """The current (maintained) result, a canonical interned set.

        Rendered here, not at commit: the first read after a run of commits
        splices their net root delta into the last value read.
        """
        self._check_usable()
        with self.engine.lock:
            return self._root.out

    def __len__(self) -> int:
        """Rows in the current result, kept from the root delta (no render)."""
        return self._size

    def rows(self) -> frozenset:
        """The result as plain python rows (order-free comparison aid)."""
        from ...objects.values import to_python

        return frozenset(to_python(e) for e in self.value.elements)

    def maintenance_plan(self):
        """The ``ivm-*`` plan tree this view maintains by (for explain/tests)."""
        return maintenance_plan(self.expr, self.bases)

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
                # bases are there, as a cold read would intern them.
                env, current = self._env, self._snapshot.env
                for name in changeset:
                    if name in env:
                        env[name] = current[name]
                stats = self.stats
                fallback = self.recompute_only
                over, rederived = stats.dred_overdeletes, stats.dred_rederives
                if fallback:
                    delta = self._rebuild()
                    stats.fallback_recomputes += 1
                else:
                    root_delta = self._apply_node(self.plan_ops, self._root, changeset)
                    delta = self._commit_root(root_delta)
                delta.dred_overdeleted = stats.dred_overdeletes - over
                delta.dred_rederived = stats.dred_rederives - rederived
                stats.delta_applies += 1
                stats.rows_inserted += len(delta.inserted)
                stats.rows_deleted += len(delta.deleted)
                if sp is not None:
                    sp.set(
                        inserted=len(delta.inserted),
                        deleted=len(delta.deleted),
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

    def _rebuild(self) -> ViewDelta:
        """Re-evaluate from the current bases; the diff against what was served."""
        it = self._it
        old = self._root.out
        new = expect_set(
            self._vec.run(self.expr, env=self._env),
            f"view {self.name!r}",
        )
        if not self.recompute_only:
            self._root = self._init_node(self.plan_ops)
            # Where the maintenance semantics (least fixpoints) disagrees
            # with the cold evaluation, serve the cold value and recompute
            # from now on.
            self.recompute_only = self._root.out != new
        if self.recompute_only:
            self._root = _NodeState(it, self.stats)
            self._root.out = new
        self._size = len(new.elements)
        return ViewDelta(it.difference(new, old).elements, it.difference(old, new).elements)

    def _commit_root(self, root_delta: SetDelta) -> ViewDelta:
        ins = tuple(v for v, dc in root_delta.items() if dc > 0)
        dels = tuple(v for v, dc in root_delta.items() if dc < 0)
        self._size += len(ins) - len(dels)
        return ViewDelta(ins, dels)

    # -- compiled-closure plumbing --------------------------------------------

    def _fn(self, e: Expr):
        return self._vec.compile(e).fn

    # -- initial state build ---------------------------------------------------

    def _init_node(self, op: DeltaOp) -> _NodeState:
        st = _NodeState(self._it, self.stats)
        st.children = tuple(self._init_node(c) for c in op.children)
        kind = op.kind
        if kind in ("static", "base"):
            st.out = self._eval_set(op.expr)
            return st
        if kind == "fixpoint":
            # The node's one pass, from empty with the seed as the insertion.
            st.runner = self._vec.compiler.step_runner(op.step, op.shape)
            seed = st.children[0].out.elements
            st.out = self._it.empty_set
            if op.shape.self_join is not None:
                st.flat = _FlatIJoinState(self._it.pair_parts(), op.shape.self_join)
                if self._ijoin_dred(st, seed, ()) is not None:
                    # Keyed on the codes: the cold run in ``_rebuild`` has
                    # just interned this very set.
                    st.out = self._it.set_from_pair_codes(st.flat.present)
                    return st
                st.flat = None
            st.out = self._dred_fixpoint(op, st, seed, ())
            return st
        # A counted node writes its build's derivations straight into its
        # counts; its output is their support.
        st.counts = counts = {}
        if kind in ("map", "select", "ext"):
            self._ext_accumulate(op, counts, st.children[0].out.elements, +1)
        elif kind == "join":
            st.lindex, st.rindex = {}, {}
            left, right = st.children
            # The bilinear pass from empty: the right side meets an empty
            # left index, then the left side derives every pair.
            self._join_probe(op, st, False, right.out.elements, +1, counts)
            self._join_probe(op, st, True, left.out.elements, +1, counts)
        elif kind == "union":
            for child in st.children:
                for v in child.out.elements:
                    counts[v] = counts.get(v, 0) + 1
        else:
            raise AssertionError(f"unknown delta op kind {kind!r}")
        st.out = self._it.mkset(counts)
        return st

    def _eval_set(self, e: Expr) -> SetVal:
        return expect_set(self._fn(e)(self._env), "maintenance subexpression")

    # -- delta propagation -----------------------------------------------------

    def _apply_node(self, op: DeltaOp, st: _NodeState, cs: Changeset) -> SetDelta:
        kind = op.kind
        if kind == "static":
            return {}
        if kind == "base":
            d = cs.get(op.source)
            if d is None:
                return {}
            it = self._it
            delta: SetDelta = {}
            for v in d.inserts:
                delta[it.intern(v)] = 1
            for v in d.deletes:
                delta[it.intern(v)] = -1
            st.out = self._env[op.source]
            return delta

        child_deltas = [
            self._apply_node(c, cst, cs) for c, cst in zip(op.children, st.children)
        ]
        if kind in ("map", "select", "ext"):
            (d,) = child_deltas
            acc: SetDelta = {}
            if d:
                inserted = [v for v, dc in d.items() if dc > 0]
                deleted = [v for v, dc in d.items() if dc < 0]
                self._ext_accumulate(op, acc, deleted, -1)
                self._ext_accumulate(op, acc, inserted, +1)
            return self._commit_counts(st, acc)
        if kind == "union":
            acc = {}
            for d in child_deltas:
                for v, dc in d.items():
                    acc[v] = acc.get(v, 0) + dc
            return self._commit_counts(st, acc)
        if kind == "join":
            return self._apply_join(op, st, child_deltas[0], child_deltas[1])
        if kind == "fixpoint":
            return self._apply_fixpoint(op, st, child_deltas[0])
        raise AssertionError(f"unknown delta op kind {kind!r}")

    def _commit_counts(self, st: _NodeState, acc: SetDelta) -> SetDelta:
        """Fold signed derivation counts into the node; emit the set delta."""
        counts = st.counts
        out_delta: SetDelta = {}
        for v, dc in acc.items():
            if dc == 0:
                continue
            old = counts.get(v, 0)
            new = old + dc
            if new < 0:
                raise AssertionError(
                    "negative support count: changeset violated net-effect "
                    "invariants"
                )
            if new == 0:
                counts.pop(v, None)
            else:
                counts[v] = new
            if old == 0 and new > 0:
                out_delta[v] = 1
            elif old > 0 and new == 0:
                out_delta[v] = -1
        st.moved(out_delta)
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
                self._join_probe(op, st, left, [v for v, dc in d.items() if dc < 0], -1, acc)
                self._join_probe(op, st, left, [v for v, dc in d.items() if dc > 0], +1, acc)
        return self._commit_counts(st, acc)

    # -- fixpoint --------------------------------------------------------------

    def _resume(self, st: _NodeState, acc: SetVal, frontier: SetVal) -> SetVal:
        """Semi-naive rounds from ``acc`` with ``frontier`` to the least
        fixpoint containing ``acc``: the node's step runner, the loop a
        query runs, re-entered where the old result stopped."""
        out, rounds = st.runner.resume(self._env, acc, frontier)
        self.stats.seminaive_rounds += rounds
        return out

    def _apply_fixpoint(self, op: DeltaOp, st: _NodeState, d: SetDelta) -> SetDelta:
        if not d:
            return {}
        ins = [v for v, dc in d.items() if dc > 0]
        dels = [v for v, dc in d.items() if dc < 0]
        if st.flat is not None:
            # The indexed pass knows its exact delta (what fell for good,
            # what is genuinely new): no full-set diff, and no render.
            moved = self._ijoin_dred(st, ins, dels)
            if moved is not None:
                self.stats.flat_index_applies += 1
                pair = self._it.pair_from_ids
                fell, added = moved
                delta = {pair(c >> CODE_BITS, c & CODE_MASK): -1 for c in fell}
                for c in added:
                    delta[pair(c >> CODE_BITS, c & CODE_MASK)] = 1
                st.moved(delta)
                return delta
            # A value outside the pair domain: drop the mirror for good.  The
            # declined pass touched only the mirror, so ``st.out`` is still
            # the pre-pass fixpoint and the generic pass below runs on it.
            st.flat = None
        it = self._it
        old = st.out
        st.out = self._dred_fixpoint(op, st, ins, dels)
        delta: SetDelta = {}
        for v in it.difference(st.out, old).elements:
            delta[v] = 1
        for v in it.difference(old, st.out).elements:
            delta[v] = -1
        return delta

    def _dred_fixpoint(self, op: DeltaOp, st: _NodeState, ins, dels) -> SetVal:
        """Delete/rederive (DRed): the fixpoint node's one pass, every batch.

        **Over-deletion.**  Starting from the deleted seed elements, apply
        the loop's frontier terms with the *old* fixpoint as the accumulator
        and the freshly over-deleted elements as the frontier, until nothing
        new falls: because the step is union-distributive, the terms cover
        exactly the derivations touching the frontier, so the pass collects
        every element with *some* derivation through a deleted element (an
        over-approximation -- alternative support is ignored on purpose,
        which is what breaks cyclic self-support).  The terms are monotone
        in both slots, so the survivors ``R = old \\ over`` provably all lie
        in the new least fixpoint.

        **Rederivation.**  An over-deleted element is still derivable iff it
        is in the maintained seed or one step of the loop body away from
        ``R``; those plus the batch's insertions re-enter the ordinary
        semi-naive continuation (:meth:`_resume`), which re-proves everything
        they transitively support.  The over-deletion sweep is a loop of its
        own: it pins the accumulator at the old fixpoint.  Work scales with
        the affected derivation cone, not the result; when the cone *is* the
        result (a hub deletion) DRed degenerates to roughly one recompute
        plus the over-deletion sweep -- see DESIGN.md, "when maintenance
        loses".

        With nothing deleted, neither pass runs: an insert-only batch is the
        continuation from the inserted frontier, and the node's build is
        this pass from an empty fixpoint with the seed inserted -- the
        runner's loop from the seed, as a query runs it.
        """
        it = self._it
        old = st.out
        surviving, over, rederived = old, {}, []
        if dels:
            surviving, over, rederived = self._dred_cut(op, st, old, dels)
        frontier = it.difference(it.mkset(rederived + list(ins)), surviving)
        out = self._resume(st, it.union(surviving, frontier), frontier)
        if dels:
            out_ids = set(map(id, out.elements))
            self.stats.dred_applies += 1
            self.stats.dred_overdeletes += len(over)
            self.stats.dred_rederives += sum(1 for v in over if id(v) in out_ids)
        return out

    def _dred_cut(self, op: DeltaOp, st: _NodeState, old: SetVal, dels):
        """DRed's first two passes: ``(survivors, over-deleted, rederived)``."""
        it = self._it
        env = self._env
        old_ids = set(map(id, old.elements))
        # -- over-deletion pass ------------------------------------------------
        over: dict = dict.fromkeys(v for v in dels if id(v) in old_ids)
        frontier = it.mkset(over)
        over_ids = set(map(id, over))
        term_fns = [self._fn(t) for t in op.shape.terms]
        var, dv = op.shape.var, op.shape.delta_var
        vtok, dtok = bind(env, var), bind(env, dv)
        try:
            env[var] = old
            while frontier.elements:
                self.stats.seminaive_rounds += 1
                env[dv] = frontier
                fell: list[Value] = []
                for fn in term_fns:
                    for y in expect_set(fn(env), "dred over-deletion term").elements:
                        if id(y) in old_ids and id(y) not in over_ids:
                            over[y] = None
                            over_ids.add(id(y))
                            fell.append(y)
                frontier = it.mkset(fell)
        finally:
            unbind(env, dv, dtok)
            unbind(env, var, vtok)
        surviving = it.difference(old, it.mkset(over))
        # -- rederivation pass -------------------------------------------------
        seed = st.children[0].out  # already maintained: this batch applied
        seed_ids = set(map(id, seed.elements))
        vtok = bind(env, var)
        try:
            env[var] = surviving
            one_step = expect_set(self._fn(op.step.body)(env), "dred rederivation step")
        finally:
            unbind(env, var, vtok)
        one_step_ids = set(map(id, one_step.elements))
        rederived = [v for v in over
                     if id(v) in seed_ids or id(v) in one_step_ids]
        return surviving, over, rederived

    # -- indexed fixpoint (the self-join step of ``fix()``) --------------------
    #
    # The pass costs the derivation cone of the change -- index probes per
    # touched element over ``_FlatIJoinState`` -- never a re-join or a
    # per-round index rebuild.  It returns ``None`` instead when a value lies
    # outside the pair domain, having touched only the mirror.

    def _flat_codes(self, flat: _FlatIJoinState, values) -> Optional[list]:
        """Packed pair codes of interned values; ``None`` outside the domain."""
        it = self._it
        parts = flat.parts
        codes: list = []
        for v in values:
            try:
                pr = parts.get(it.dense_id(v))
            except KeyError:
                return None
            if pr is None:
                return None
            codes.append((pr[0] << CODE_BITS) | pr[1])
        return codes

    def _ijoin_dred(self, st: _NodeState, ins, dels) -> Optional[tuple[list, list]]:
        """Delete/rederive over the counted indexes (see ``_dred_fixpoint``).

        Same two passes as the generic DRed, at cone cost.  **Over-delete**:
        walk every derivation through a deleted element by index probes,
        unindexing each fallen element and decrementing the counts of the
        derivations it carried -- when the walk ends, a fallen element's
        remaining count is exactly its support among the survivors.
        **Rederive**: the fallen elements still in the (already-maintained)
        seed or with surviving support re-enter the indexed continuation,
        together with the batch's insertions, which re-proves everything
        they transitively support and re-counts each restored derivation
        exactly once.  Returns the boundary as codes -- what fell for good,
        what is genuinely new -- for the caller to decode: a batch renders
        them as its delta, the build renders ``present`` once instead.

        With nothing deleted the over-delete walk is empty: an insert-only
        batch is the indexed continuation alone, and the node's build is
        this pass over the seed into a fresh :class:`_FlatIJoinState`.  The
        ``dred_*`` counters count only batches that delete.
        """
        flat = st.flat
        del_codes = self._flat_codes(flat, dels)
        ins_codes = self._flat_codes(flat, ins)
        if del_codes is None or ins_codes is None:
            return None
        # The seed-code cache replays the child's (already applied) delta --
        # the membership tests below must not pay O(|seed|) per batch.
        flat.seeds.difference_update(del_codes)
        flat.seeds.update(ins_codes)
        present, counts = flat.present, flat.counts
        over: dict = {}
        rounds = 0
        try:
            frontier = [c for c in del_codes if c in present]
            while frontier:
                rounds += 1
                touched: list = []
                for c in frontier:
                    if c in over:
                        continue
                    over[c] = None
                    flat.count(c, -1, touched)
                frontier = [z for z in touched if z not in over]
            seed_set = flat.seeds
            rederived = [c for c in over
                         if c in seed_set or counts.get(c, 0) > 0]
            present.difference_update(over)
            # The counted mirror of semi-naive iteration: a code joins the
            # fixpoint, and the next frontier, when it arrives as seed or its
            # support leaves zero, and is indexed and probed once.
            added: list = []
            frontier = [c for c in rederived + ins_codes if c not in present]
            while frontier:
                rounds += 1
                touched = []
                for c in frontier:
                    if c not in present:
                        present.add(c)
                        added.append(c)
                        flat.count(c, +1, touched)
                frontier = [z for z in touched if z not in present]
        except KeyError:
            return None
        self.stats.seminaive_rounds += rounds
        if dels:
            self.stats.dred_applies += 1
            self.stats.dred_overdeletes += len(over)
            self.stats.dred_rederives += sum(1 for c in over if c in present)
        return ([c for c in over if c not in present],
                [c for c in added if c not in over])
