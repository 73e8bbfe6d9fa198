"""Columnar batches: whole-set operator kernels over interned values.

The reference interpreter walks ``ext`` bodies one element and one closure
call at a time.  This module is the set-at-a-time alternative: every kernel consumes *whole canonical sets* of
interned values and produces interned sets, so the per-element work inside a
bulk operator is a couple of dict probes and attribute loads instead of a
re-entry into the expression evaluator.

Representation.  A canonical :class:`~repro.objects.values.SetVal` whose
elements are interned *is* a columnar batch: the element tuple is the column
of row ids (interned values are unique per structure, so ``id(x)`` is a row
id), and pair-sets expose their ``fst``/``snd`` columns by attribute access.
:class:`BatchContext` adds the two pieces of per-run state the kernels share:

* the :class:`~repro.engine.interning.InternTable` that keeps identity
  equality sound and set construction a merge over cached sort keys, and
* one **record per set** (:class:`SetRecord`) in a bounded LRU keyed by
  ``id(set)``: the set's dense-id columns, its join, select and loop
  indexes and ``field_of``'s node set, so the loop-invariant side of a join
  inside a semi-naive iteration is indexed once, not once per round, and a
  commit moves the whole record onto the next version (:meth:`BatchContext.carry`).
  The record holds its set, which is what makes the ``id`` key sound: the
  set cannot be freed, and its id reused, while its record lives.

All kernels bind the iteration variable by *mutating the environment dict in
place* (saving and restoring any shadowed binding once per batch, not once
per element); compiled plan bodies read the variable straight out of the
environment.  See :mod:`repro.engine.vectorized.compiler` for how expression
shapes are lowered onto these kernels.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import eq, ne
from typing import Callable, Iterable, Optional

from ...nra.errors import NRAEvalError
from ...nra.externals import EMPTY_SIGMA, Signature
from ...objects.values import SetVal, Value
from ...obs.metrics import METRICS, Counters
from ..interning import CODE_BITS, InternTable, patch_column
from .flat import (
    FlatUnavailable,
    build_inv_index,
    follow_id,
    patch_inv_index,
    set_column,
)

#: Sentinel distinguishing "variable was unbound" from "bound to None".
_MISSING = object()

#: A compiled expression body: environment dict -> denotation.
EnvFn = Callable[[dict], object]


@dataclass(slots=True)
class VecStats(Counters):
    """Counters describing the strategies one vectorized run actually used.

    The evaluator's own ``stats`` run for its whole lifetime (they back the
    engine-scoped caches); ``Engine.run`` takes a ``copy`` before
    evaluating and report ``since`` it, so ``Engine.last_stats`` always
    describes just the last call.
    """

    bulk_maps: int = 0
    bulk_selects: int = 0
    hash_joins: int = 0
    index_builds: int = 0
    index_hits: int = 0
    elementwise_exts: int = 0
    seminaive_loops: int = 0
    seminaive_rounds: int = 0
    full_loops: int = 0
    dcr_by_size: int = 0
    dcr_trees: int = 0
    sri_elementwise: int = 0
    compiled_exprs: int = 0
    # Flat-column representation counters.  The strategy counters above keep
    # counting (a flat join is still a hash join); these record which
    # *representation* the kernel ran on, so ``flat_joins / hash_joins`` is
    # the flat coverage of a run and ``flat_fallbacks`` its holes.
    flat_maps: int = 0
    flat_selects: int = 0
    flat_joins: int = 0
    flat_dedups: int = 0
    flat_fixpoints: int = 0
    flat_rounds: int = 0
    flat_fallbacks: int = 0


class SetRecord:
    """What the kernels derived from one interned set version, in one place.

    :class:`BatchContext` keeps one record per set in an LRU keyed by
    ``id(set)``.  The record holds the set itself, so its key names that
    set for as long as the record lives, whether or not anything else
    keeps the set alive.  Every entry is a pure function of the set
    (interned sets are immutable), so any of them may be dropped and built
    again:

    * ``columns``: accessor path -> the dense-id column of that path over
      the elements, in canonical order; ``()`` is the elements' own ids;
    * ``indexes``: tag -> index.  A compiled accessor expression tags an
      object index (``id(key) -> [element]``, :meth:`BatchContext.probe_index`),
      ``("flat", path)`` a row index (``key id -> [row]``,
      :meth:`BatchContext.flat_probe_index`) and ``("inv", key path, out_a
      path, out_b path)`` the flat loop's invariant-source index (``key id
      -> [(out_a id, out_b id)]``, :meth:`BatchContext.inv_index`);
    * ``scanned``: the key paths a key-equality select has scanned once
      (:meth:`BatchContext.select_index`);
    * ``nodes`` and ``field``: the node counts (dense id -> ``fst``/``snd``
      occurrences) and the node set of :meth:`BatchContext.field_of`.
    """

    __slots__ = ("set", "columns", "indexes", "scanned", "nodes", "field")

    def __init__(self, s: SetVal):
        self.set = s
        self.columns: dict[tuple, array] = {}
        self.indexes: dict[object, dict] = {}
        self.scanned: set[tuple] = set()
        self.nodes: Optional[Counter] = None
        self.field: Optional[SetVal] = None


@dataclass
class BatchContext:
    """Shared state of one vectorized evaluation: interner, set records, stats."""

    #: Bound on the sets whose records are kept.  Inside a semi-naive loop
    #: each round's accumulator is a fresh interned set whose structures are
    #: used once, and every commit makes a new version of a collection;
    #: without a cap those records would accumulate for the lifetime of a
    #: long-lived engine.  LRU keeps the loop-invariant sets (re-probed
    #: every round) and the current versions hot while the rest age out.
    #: The measured working sets are 1-4 sets per op on the benchmark's
    #: reach, ad hoc and churn workloads and 30 on its nested one.
    MAX_CACHED_SETS = 64

    interner: InternTable
    sigma: Signature = EMPTY_SIGMA
    stats: VecStats = field(default_factory=VecStats)
    #: Whether the flat (dense-id array) kernels may run.  Fixed at evaluator
    #: construction; the object kernels remain the fallback either way.
    use_flat: bool = True
    #: When set (a :class:`repro.obs.profile.PlanProfiler`), the compiler
    #: wraps every cached closure to record per-plan-node actual time and
    #: rows.  Only ``Engine.profile`` sets this, on a throwaway evaluator:
    #: steady-state contexts keep ``None`` and pay a single ``is None``
    #: check per compile miss.
    profiler: Optional[object] = None
    _records: dict[int, SetRecord] = field(default_factory=dict)

    def clear_indexes(self) -> None:
        """Drop every set's record: its columns, indexes and node set
        (correctness is unaffected)."""
        self._records.clear()

    def record(self, source: SetVal) -> SetRecord:
        """The record of ``source``, made most recently used (a new, empty
        one if it has none), evicting the least recently used past the bound."""
        records = self._records
        rec = records.pop(id(source), None)
        if rec is None:
            rec = SetRecord(source)
            if len(records) >= self.MAX_CACHED_SETS:
                del records[next(iter(records))]
        records[id(source)] = rec
        return rec

    # -- indexes, columns and the node set ----------------------------------------

    def probe_index(
        self,
        source: SetVal,
        key_of: Callable[[Value], Value],
        cache_tag: Optional[object],
    ) -> dict[int, list[Value]]:
        """A hash index ``id(key_of(x)) -> [x, ...]`` over a canonical set.

        ``cache_tag`` identifies the accessor; pass ``None`` when the key
        function closes over loop-dependent state (the index is then rebuilt),
        or a stable token when the key is a pure function of the element (the
        index is kept in the set's record under that tag).
        """
        if cache_tag is not None:
            indexes = self.record(source).indexes
            cached = indexes.get(cache_tag)
            if cached is not None:
                self.stats.index_hits += 1
                return cached
        index: dict[int, list[Value]] = {}
        for x in source.elements:
            index.setdefault(id(key_of(x)), []).append(x)
        self.stats.index_builds += 1
        if cache_tag is not None:
            indexes[cache_tag] = index
        return index

    def flat_column(self, source: SetVal, path: tuple[str, ...]) -> array:
        """The dense-id column of ``path`` over ``source`` (``()``: the element
        ids), kept in its record.  Raises :class:`FlatUnavailable` when an
        element lacks the required pair shape."""
        return self._column(self.record(source), path)

    def _column(self, rec: SetRecord, path: tuple[str, ...]) -> array:
        col = rec.columns.get(path)
        if col is None:
            if path:
                col = set_column(self.interner, self._column(rec, ()), path)
            else:
                dense = self.interner._dense  # every element is interned
                col = array("q", map(dense.__getitem__, map(id, rec.set.elements)))
            rec.columns[path] = col
        return col

    def field_of(self, source: SetVal, build: Callable[[], SetVal]) -> SetVal:
        """The values binary relation ``source`` mentions, once per collection
        value (kept in its record).

        This is one structure derived from one collection, not a cache of
        subterm results.  Beside it the flat build keeps the relation's node
        counts (dense id -> ``fst``/``snd`` occurrences), which :meth:`carry`
        moves across a commit by the delta: the next version finds its
        field already there when no node came or went, and otherwise builds
        it from the carried counts, with no column walk.  ``build()``, the
        union as written, runs instead when the flat kernels are off or an
        element is not a pair, so its errors and counters stay the union's
        own.
        """
        rec = self.record(source)
        if rec.field is None:
            if rec.nodes is None and self.use_flat:
                try:
                    nodes = Counter(self._column(rec, ("f",)))
                    nodes.update(self._column(rec, ("s",)))
                except FlatUnavailable:
                    pass
                else:
                    rec.nodes = nodes
            rec.field = build() if rec.nodes is None else self.interner.set_from_ids(rec.nodes)
        return rec.field

    def flat_probe_index(
        self, source: SetVal, key_path: tuple[str, ...]
    ) -> dict[int, list[int]]:
        """A hash index ``key_id -> [row, ...]`` over a flat key column.

        The path is always a pure function of the element, so the index is
        kept in the set's record like :meth:`probe_index`'s (and shares its
        counters).  It names rows, and rows shift under an insert, so it
        does not follow a commit itself: the next version's is built here,
        from the key column that did.
        """
        return self._row_index(self.record(source), key_path)

    def _row_index(self, rec: SetRecord, key_path: tuple[str, ...]) -> dict[int, list[int]]:
        tag = ("flat", key_path)
        index = rec.indexes.get(tag)
        if index is not None:
            self.stats.index_hits += 1
            return index
        index = {}
        setdefault = index.setdefault
        for row, k in enumerate(self._column(rec, key_path)):
            setdefault(k, []).append(row)
        self.stats.index_builds += 1
        rec.indexes[tag] = index
        return index

    def select_index(
        self, source: SetVal, key_path: tuple[str, ...]
    ) -> Optional[dict[int, list[int]]]:
        """The ``(set, path)`` index a key-equality select may probe, or ``None``.

        ``None`` the first time ``source`` is selected from on ``key_path``:
        building the index costs more than the one scan it would save, so a
        set selected from once is scanned, and the path is noted in the
        set's record.  From the second select on -- or at once when a join
        already indexed this set on this path -- the index is built or
        fetched as :meth:`flat_probe_index` does and shared with the joins.
        """
        rec = self.record(source)
        if key_path in rec.scanned or ("flat", key_path) in rec.indexes:
            return self._row_index(rec, key_path)
        rec.scanned.add(key_path)
        return None

    def inv_index(self, source: SetVal, tag: tuple) -> dict[int, list]:
        """The flat loop's index over an invariant right source (kept in its record).

        ``tag`` is that of :func:`~repro.engine.vectorized.flat.build_inv_index`.
        Readers must not mutate the result: it serves every run over ``source``.
        """
        rec = self.record(source)
        index = rec.indexes.get(tag)
        if index is not None:
            self.stats.index_hits += 1
            return index
        self.stats.index_builds += 1
        _count_inv_index("built")
        index = rec.indexes[tag] = build_inv_index(self.interner, self._column(rec, ()), tag)
        return index

    def carry(self, old: SetVal, new: SetVal, dels: list, ins: list) -> None:
        """Build ``new``'s record from ``old``'s, moved by the row patch.

        ``dels``/``ins`` came with ``new`` from :meth:`InternTable.splice`.
        Each column of ``old`` (the element ids included) and each invariant
        index is copied once at C level and edited at the delta's rows only.
        The node counts behind :meth:`field_of` are copied and moved by the
        pair parts of the delta's elements, O(|delta|): when no node came or
        went, ``new``'s field is ``old``'s interned set itself (no intern
        probe at commit); otherwise its first :meth:`field_of` builds it
        from the counts.  What ``new``'s record already holds is kept, and
        an entry the delta cannot extend (a new element lacks the pair shape
        a path needs) is left out: the read takes the cold build, and its
        errors.
        """
        rec = self._records.get(id(old))
        if rec is None:
            return
        to, it = self.record(new), self.interner
        parts = it.pair_parts()
        for path, col in rec.columns.items():
            if path not in to.columns:
                values = [(row, follow_id(parts, d, path)) for row, d in ins]
                if None not in [v for _, v in values]:
                    to.columns[path] = patch_column(col, dels, values)
        for tag, index in rec.indexes.items():
            if type(tag) is tuple and tag[0] == "inv" and tag not in to.indexes:
                try:
                    to.indexes[tag] = patch_inv_index(index, it, tag, dels, ins)
                except NRAEvalError:
                    continue
                _count_inv_index("patched")
        nodes = rec.nodes
        if nodes is None or to.nodes is not None or any(d not in parts for _, d in ins):
            return  # no counts, or ``new``'s own, or a non-pair element: the cold build
        moved = nodes.copy()
        for _, d in dels:
            moved.subtract(parts[d])
        for _, d in ins:
            moved.update(parts[d])
        touched = {n for _, d in dels + ins for n in parts[d]}
        for n in touched:
            if not moved[n]:
                del moved[n]
        to.nodes = moved
        if rec.field is not None and all((n in nodes) == (n in moved) for n in touched):
            to.field = rec.field


def _count_inv_index(kind: str) -> None:
    """Invariant-source indexes ``patched`` across a commit against ``built`` from scratch."""
    if METRICS.enabled:
        METRICS.counter(f'repro_carried_indexes_total{{kind="{kind}"}}').inc()


def bind(env: dict, var: str):
    """Save the binding ``var`` may shadow; returns a token for :func:`unbind`."""
    return env.get(var, _MISSING)

def unbind(env: dict, var: str, token) -> None:
    if token is _MISSING:
        env.pop(var, None)
    else:
        env[var] = token


def expect_set(v: object, what: str) -> SetVal:
    if not isinstance(v, SetVal):
        raise NRAEvalError(f"{what}: expected a set, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# Whole-set kernels
# ---------------------------------------------------------------------------

def bulk_map(
    ctx: BatchContext,
    env: dict,
    source: SetVal,
    var: str,
    out_fn: EnvFn,
) -> SetVal:
    """``ext(\\x. {out})(source)``: one pass, one set construction."""
    ctx.stats.bulk_maps += 1
    token = bind(env, var)
    try:
        out = []
        append = out.append
        for x in source.elements:
            env[var] = x
            append(out_fn(env))
    finally:
        unbind(env, var, token)
    return ctx.interner.mkset(out)


def bulk_select(
    ctx: BatchContext,
    env: dict,
    source: SetVal,
    var: str,
    pred_fn: EnvFn,
    out_fn: EnvFn,
    negate: bool,
) -> SetVal:
    """``ext(\\x. if p(x) then {out} else {})(source)``: fused filter+project."""
    ctx.stats.bulk_selects += 1
    true, false = ctx.interner.true, ctx.interner.false
    want, drop = (false, true) if negate else (true, false)
    token = bind(env, var)
    try:
        out = []
        append = out.append
        for x in source.elements:
            env[var] = x
            p = pred_fn(env)
            if p is want:
                append(out_fn(env))
            elif p is not drop:
                raise NRAEvalError(f"if-condition: expected a boolean, got {p!r}")
    finally:
        unbind(env, var, token)
    return ctx.interner.mkset(out)


def hash_join(
    ctx: BatchContext,
    env: dict,
    left: SetVal,
    right: SetVal,
    lvar: str,
    rvar: str,
    lkey_fn: EnvFn,
    rkey_fn: EnvFn,
    out_fn: EnvFn,
    rkey_tag: Optional[object],
) -> SetVal:
    """``ext(\\x. ext(\\y. if k1(x) = k2(y) then {out(x,y)} else {})(right))(left)``.

    The classical hash equi-join: index the right side on its key, stream the
    left side, emit ``out`` per matching pair.  Cost is O(|left| + |right| +
    matches) instead of the nested-loop O(|left| * |right|) the element-wise
    evaluators pay for the same expression (``repro.nra.derived.compose`` is
    exactly this shape).
    """
    ctx.stats.hash_joins += 1
    rtoken = bind(env, rvar)
    try:
        def rkey(y: Value) -> Value:
            env[rvar] = y
            return rkey_fn(env)  # type: ignore[return-value]

        index = ctx.probe_index(right, rkey, rkey_tag)
    finally:
        unbind(env, rvar, rtoken)

    ltoken = bind(env, lvar)
    rtoken = bind(env, rvar)
    try:
        out = []
        append = out.append
        get = index.get
        for x in left.elements:
            env[lvar] = x
            matches = get(id(lkey_fn(env)))
            if matches:
                for y in matches:
                    env[rvar] = y
                    append(out_fn(env))
    finally:
        unbind(env, rvar, rtoken)
        unbind(env, lvar, ltoken)
    return ctx.interner.mkset(out)


def elementwise_ext(
    ctx: BatchContext,
    env: dict,
    source: SetVal,
    var: str,
    body_fn: EnvFn,
) -> SetVal:
    """General ``ext``: evaluate the body per element, union all the pieces.

    The pieces are collected and canonicalised *once* (union is associative,
    commutative and idempotent, so one merged construction equals the
    reference interpreter's left-to-right accumulation) -- still set-at-a-time
    on the output side even when the body has no recognisable bulk shape.
    """
    ctx.stats.elementwise_exts += 1
    token = bind(env, var)
    try:
        elements: list[Value] = []
        extend = elements.extend
        for x in source.elements:
            env[var] = x
            piece = body_fn(env)
            if not isinstance(piece, SetVal):
                raise NRAEvalError(f"ext parameter returned non-set {piece!r}")
            extend(piece.elements)
    finally:
        unbind(env, var, token)
    return ctx.interner.mkset(elements)


def union_all(ctx: BatchContext, parts: Iterable[SetVal]) -> SetVal:
    """Union of many interned sets in one canonical construction."""
    elements: list[Value] = []
    for p in parts:
        elements.extend(p.elements)
    return ctx.interner.mkset(elements)


# ---------------------------------------------------------------------------
# Flat (dense-id array) kernels
# ---------------------------------------------------------------------------
#
# These are the array counterparts of the object kernels above, used when the
# compiler could reduce a shape's keys and outputs to accessor paths
# (:func:`repro.engine.shapes.accessor_path`).  Inputs are the same
# canonical sets; the difference is that per-element work is integer loads
# and compares over ``array('q')`` columns, and outputs are materialized from
# ids in one batch at the end.  Each kernel raises
# :class:`~repro.engine.vectorized.flat.FlatUnavailable` before any
# observable effect when an element lacks the shape its paths require; the
# compiled closures then fall back to the object kernel, which reproduces the
# canonical behaviour (including its exact errors).

#: Output of a flat map/select/join: ``("one", owner, path)`` emits a single
#: id column, ``("pair", (owner_a, path_a), (owner_b, path_b))`` emits packed
#: pair codes, ``("elems",)`` (select only) keeps the input element.  The
#: owner is ``"l"``/``"r"`` for joins and ignored for single-source kernels.

def flat_map(ctx: BatchContext, source: SetVal, out_spec: tuple) -> SetVal:
    """``ext(\\x. {out})(source)`` where ``out`` is made of accessor paths."""
    it = ctx.interner
    if out_spec[0] == "one":
        col = ctx.flat_column(source, out_spec[2])
        result = it.set_from_ids(col)
    else:
        ca = ctx.flat_column(source, out_spec[1][1])
        cb = ctx.flat_column(source, out_spec[2][1])
        result = it.set_from_pair_codes(
            (a << CODE_BITS) | b for a, b in zip(ca, cb)
        )
    ctx.stats.bulk_maps += 1
    ctx.stats.flat_maps += 1
    ctx.stats.flat_dedups += 1
    return result


def flat_group_map(
    ctx: BatchContext,
    keys,
    inner: SetVal,
    lpath: tuple[str, ...],
    opath: tuple[str, ...],
) -> SetVal:
    """``ext(\\x. {(k(x), ext(\\y. if l(y) = k(x) then {o(y)} else {})(inner))})(S)``.

    The hash group-by: ``keys`` is the ``k`` column of ``S`` (taken by the
    caller, before ``inner`` was evaluated).  One fetch of the ``(inner, l)``
    index the joins share, then one group -- one dedup over the ``o`` column
    -- per *distinct* key; a key ``inner`` lacks pairs with the empty set.
    O(|S| + |inner|), where the select per element probes and dedups per row.
    """
    it = ctx.interner
    ocol = ctx.flat_column(inner, opath)
    rows_of = ctx.flat_probe_index(inner, lpath).get
    dense_id, set_from_ids = it.dense_id, it.set_from_ids
    codes = [
        (k << CODE_BITS) | dense_id(set_from_ids([ocol[r] for r in rows_of(k, ())]))
        for k in dict.fromkeys(keys)
    ]
    ctx.stats.bulk_maps += 1
    ctx.stats.flat_maps += 1
    ctx.stats.flat_dedups += len(codes)
    return it.set_from_pair_codes(codes)


def flat_unnest(
    ctx: BatchContext,
    source: SetVal,
    spath: tuple[str, ...],
    apath: Optional[tuple[str, ...]],
    bpath: Optional[tuple[str, ...]],
) -> SetVal:
    """``ext(\\x. ext(\\y. {(a, b)})(s(x)))(source)``: one flattening pass.

    ``a``/``b`` are paths of ``x``, or ``None`` for ``y`` itself.  Each inner
    set contributes its cached id column, the output is packed pair codes
    deduplicated once -- no closure call per element of either level.
    """
    it = ctx.interner
    scol = ctx.flat_column(source, spath)
    acol = None if apath is None else ctx.flat_column(source, apath)
    bcol = None if bpath is None else ctx.flat_column(source, bpath)
    value_of, flat_column = it.value_of, ctx.flat_column
    codes: list[int] = []
    for row, s in enumerate(scol):
        inner = value_of(s)
        if not isinstance(inner, SetVal):
            raise FlatUnavailable("non-set under the unnested path")
        ys = flat_column(inner, ())
        a_ids = ys if acol is None else repeat(acol[row], len(ys))
        b_ids = ys if bcol is None else repeat(bcol[row], len(ys))
        codes += [(a << CODE_BITS) | b for a, b in zip(a_ids, b_ids)]
    result = it.set_from_pair_codes(codes)
    ctx.stats.bulk_maps += 1
    ctx.stats.flat_maps += 1
    ctx.stats.flat_dedups += 1
    return result


def flat_select(
    ctx: BatchContext,
    source: SetVal,
    lpath: tuple[str, ...],
    rhs: tuple,
    out_spec: tuple,
    negate: bool,
) -> SetVal:
    """``ext(\\x. if a = b then {out} else {})(source)`` on id columns.

    ``rhs`` is ``("path", path)`` for a column-column compare or
    ``("id", dense_id)`` for a column-constant compare (identity equality of
    interned values *is* dense-id equality).  A positive column-constant
    compare is a key lookup: the kept rows come from the ``(set, path)``
    index once :meth:`BatchContext.select_index` has one (O(matches)), and
    from a scan of the column otherwise.
    """
    it = ctx.interner
    rows = None  # the kept row numbers, ascending
    if rhs[0] == "id" and not negate:
        index = ctx.select_index(source, lpath)
        if index is not None:
            rows = index.get(rhs[1], ())
    if rows is None:
        la = ctx.flat_column(source, lpath)
        rb = ctx.flat_column(source, rhs[1]) if rhs[0] == "path" else repeat(rhs[1])
        rows = list(compress(count(), map(ne if negate else eq, la, rb)))
    if out_spec[0] == "elems":
        # Identity output: a kept subsequence of a canonical set is
        # canonical, so no re-sort (and no dedup) is needed.
        elements = source.elements
        if len(rows) == len(elements):
            result = source
        else:
            result = it.canonical_set(elements[r] for r in rows)
    elif out_spec[0] == "one":
        col = ctx.flat_column(source, out_spec[2])
        result = it.set_from_ids([col[r] for r in rows])
        ctx.stats.flat_dedups += 1
    else:
        ca = ctx.flat_column(source, out_spec[1][1])
        cb = ctx.flat_column(source, out_spec[2][1])
        result = it.set_from_pair_codes(
            [(ca[r] << CODE_BITS) | cb[r] for r in rows]
        )
        ctx.stats.flat_dedups += 1
    ctx.stats.bulk_selects += 1
    ctx.stats.flat_selects += 1
    return result


def flat_join(
    ctx: BatchContext,
    left: SetVal,
    right: SetVal,
    lkey_path: tuple[str, ...],
    rkey_path: tuple[str, ...],
    out_spec: tuple,
) -> SetVal:
    """Hash equi-join on dense-id key columns with id/code outputs.

    Same plan as :func:`hash_join` -- index the right key column, stream the
    left one -- but probes are int hashes and the output rows are ids packed
    into codes, deduplicated as integers and materialized once.
    """
    it = ctx.interner
    index = ctx.flat_probe_index(right, rkey_path)
    lk = ctx.flat_column(left, lkey_path)
    if out_spec[0] == "one":
        owner, path = out_spec[1], out_spec[2]
        col = ctx.flat_column(left if owner == "l" else right, path)
        ids = []
        extend = ids.extend
        append = ids.append
        get = index.get
        for row, k in enumerate(lk):
            rows = get(k)
            if rows:
                if owner == "l":
                    append(col[row])
                else:
                    extend(col[r] for r in rows)
        result = it.set_from_ids(ids)
    else:
        (oa_own, oa_path), (ob_own, ob_path) = out_spec[1], out_spec[2]
        ca = ctx.flat_column(left if oa_own == "l" else right, oa_path)
        cb = ctx.flat_column(left if ob_own == "l" else right, ob_path)
        codes = []
        append = codes.append
        get = index.get
        for row, k in enumerate(lk):
            rows = get(k)
            if rows:
                for r in rows:
                    append(
                        ((ca[row] if oa_own == "l" else ca[r]) << CODE_BITS)
                        | (cb[row] if ob_own == "l" else cb[r])
                    )
        result = it.set_from_pair_codes(codes)
    ctx.stats.hash_joins += 1
    ctx.stats.flat_joins += 1
    ctx.stats.flat_dedups += 1
    return result
