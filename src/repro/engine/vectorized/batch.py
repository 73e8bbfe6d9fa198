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
* a **join-index cache**: hash indexes (``id(key) -> rows``) built over a set
  are remembered per ``(set, key accessor)``, so the loop-invariant side of a
  join inside a semi-naive iteration is indexed once, not once per round.

All kernels bind the iteration variable by *mutating the environment dict in
place* (saving and restoring any shadowed binding once per batch, not once
per element); compiled plan bodies read the variable straight out of the
environment.  See :mod:`repro.engine.vectorized.compiler` for how expression
shapes are lowered onto these kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Optional

from ...nra.errors import NRAEvalError
from ...nra.externals import EMPTY_SIGMA, Signature
from ...objects.values import SetVal, Value
from ...obs.metrics import METRICS
from ..interning import InternTable, patch_column
from .flat import (
    CODE_BITS,
    ID_LIMIT,
    FlatUnavailable,
    build_inv_index,
    equal_mask,
    follow_id,
    patch_inv_index,
    set_column,
)

#: Sentinel distinguishing "variable was unbound" from "bound to None".
_MISSING = object()

#: A compiled expression body: environment dict -> denotation.
EnvFn = Callable[[dict], object]


@dataclass
class VecStats:
    """Counters describing the strategies one vectorized run actually used."""

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

    def copy(self) -> "VecStats":
        return VecStats(**{f: getattr(self, f) for f in self.__dataclass_fields__})

    def since(self, baseline: "VecStats") -> "VecStats":
        """The per-call view: counters accumulated after ``baseline`` was taken.

        The evaluator's own ``stats`` run for its whole lifetime (they back
        the engine-scoped caches); ``Engine.run``/``run_many`` snapshot before
        evaluating and report the difference, so ``Engine.last_stats`` always
        describes just the last call.
        """
        return VecStats(
            **{f: getattr(self, f) - getattr(baseline, f) for f in self.__dataclass_fields__}
        )


@dataclass
class BatchContext:
    """Shared state of one vectorized evaluation: interner, indexes, stats."""

    #: Bound on cached join indexes.  Inside a semi-naive loop each round's
    #: accumulator is a fresh interned set whose index is used once; without a
    #: cap those single-use entries would accumulate for the lifetime of a
    #: long-lived engine.  LRU keeps the loop-invariant indexes (re-probed
    #: every round) hot while single-use ones age out.
    MAX_CACHED_INDEXES = 128

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
    _indexes: dict[tuple, object] = field(default_factory=dict)
    _columns: dict[tuple, object] = field(default_factory=dict)

    def clear_indexes(self) -> None:
        """Drop every cached join index and flat column (correctness is unaffected)."""
        self._indexes.clear()
        self._columns.clear()

    # -- index plumbing -----------------------------------------------------------

    def _keep(self, cache: dict, key: tuple, entry):
        """Cache ``entry`` as most recently used, evicting the least recently used."""
        cache[key] = entry
        if len(cache) > self.MAX_CACHED_INDEXES:
            cache.pop(next(iter(cache)))
        return entry

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
        index is cached per ``(set, accessor)`` -- sound because interned sets
        are immutable and kept alive by the intern table).
        """
        indexes = self._indexes
        if cache_tag is not None:
            key = (id(source), cache_tag)
            cached = indexes.pop(key, None)
            if cached is not None:
                indexes[key] = cached  # re-insert: most recently used last
                self.stats.index_hits += 1
                return cached
        index: dict[int, list[Value]] = {}
        for x in source.elements:
            index.setdefault(id(key_of(x)), []).append(x)
        self.stats.index_builds += 1
        if cache_tag is not None:
            self._keep(indexes, (id(source), cache_tag), index)
        return index

    # -- flat columns and indexes -------------------------------------------------

    def flat_column(self, source: SetVal, path: tuple[str, ...]):
        """The dense-id column of ``path`` over ``source`` (LRU-cached).

        Sound for the same reason the join-index cache is: interned sets are
        immutable and kept alive by the intern table, and a path column is a
        pure function of the set.  Raises :class:`FlatUnavailable` when an
        element lacks the required pair shape.
        """
        if not path:
            return self.interner.set_ids(source)
        columns = self._columns
        key = (id(source), path)
        cached = columns.pop(key, None)
        if cached is not None:
            columns[key] = cached
            return cached
        return self._keep(columns, key, set_column(self.interner, source, path))

    def field_of(self, source: SetVal, build: Callable[[], SetVal]) -> SetVal:
        """``build()``, the values binary relation ``source`` mentions, once
        per collection value (kept and aged out with its indexes).

        This one structure derived from one collection, not a cache of
        subterm results.  It does not follow a commit: the first read of the
        next version builds its own, from the columns that did.
        """
        indexes = self._indexes
        key = (id(source), "field")
        cached = indexes.pop(key, None)
        if cached is not None:
            indexes[key] = cached
            return cached
        return self._keep(indexes, key, build())

    def flat_probe_index(
        self, source: SetVal, key_path: tuple[str, ...]
    ) -> dict[int, list[int]]:
        """A hash index ``key_id -> [row, ...]`` over a flat key column.

        The path is always a pure function of the element, so the index is
        cached per ``(set, path)`` like :meth:`probe_index` caches the object
        indexes (and shares its LRU bound and counters).  It names rows, and
        rows shift under an insert, so it does not follow a commit itself:
        the next version's is built here, from the key column that did.
        """
        indexes = self._indexes
        key = (id(source), ("flat", key_path))
        cached = indexes.pop(key, None)
        if cached is not None:
            indexes[key] = cached
            self.stats.index_hits += 1
            return cached
        index: dict[int, list[int]] = {}
        setdefault = index.setdefault
        for row, k in enumerate(self.flat_column(source, key_path)):
            setdefault(k, []).append(row)
        self.stats.index_builds += 1
        return self._keep(indexes, key, index)

    def select_index(
        self, source: SetVal, key_path: tuple[str, ...]
    ) -> Optional[dict[int, list[int]]]:
        """The ``(set, path)`` index a key-equality select may probe, or ``None``.

        ``None`` the first time ``source`` is selected from on ``key_path``:
        building the index costs more than the one scan it would save, so a
        set selected from once is scanned.  The touch is remembered in the
        index cache itself (a ``None`` entry, aged out by the same LRU), and
        from the second select on -- or at once when a join already indexed
        this set on this path -- the index is built or fetched by
        :meth:`flat_probe_index` and shared with the joins.
        """
        indexes = self._indexes
        key = (id(source), ("flat", key_path))
        if key in indexes:
            return self.flat_probe_index(source, key_path)
        self._keep(indexes, key, None)
        return None

    def inv_index(self, source: SetVal, tag: tuple) -> dict[int, list]:
        """The flat loop's index over an invariant right source (LRU-cached).

        ``tag`` is that of :func:`~repro.engine.vectorized.flat.build_inv_index`.
        Readers must not mutate the result: it serves every run over ``source``.
        """
        indexes = self._indexes
        key = (id(source), tag)
        cached = indexes.pop(key, None)
        if cached is not None:
            indexes[key] = cached
            self.stats.index_hits += 1
            return cached
        self.stats.index_builds += 1
        _count_inv_index("built")
        return self._keep(indexes, key, build_inv_index(self.interner, source, tag))

    def carry(self, old: SetVal, new: SetVal, dels: list, ins: list) -> None:
        """Give ``new`` what is cached for ``old``, moved by the row patch.

        ``dels``/``ins`` came with ``new`` from :meth:`InternTable.advance`.
        Each path column and invariant index of ``old`` is copied once at C
        level and edited at the delta's rows only.  An entry the delta cannot
        extend (a new element lacks the pair shape a path needs) is left out:
        the read takes the cold build, and its errors.
        """
        it = self.interner
        parts = it.pair_parts()
        for key in [k for k in self._columns if k[0] == id(old)]:
            if (id(new), key[1]) in self._columns:
                continue
            values = [(row, follow_id(parts, d, key[1])) for row, d in ins]
            if None not in [v for _, v in values]:
                self._keep(self._columns, (id(new), key[1]),
                           patch_column(self._columns[key], dels, values))
        for key in [k for k in self._indexes if k[0] == id(old)]:
            tag = key[1]  # an Expr (object index), "field", ("flat", path) or ("inv", ...)
            if type(tag) is tuple and tag[0] == "inv" and (id(new), tag) not in self._indexes:
                try:
                    patched = patch_inv_index(self._indexes[key], it, tag, dels, ins)
                except NRAEvalError:
                    continue
                self._keep(self._indexes, (id(new), tag), patched)
                _count_inv_index("patched")


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
# (:func:`repro.engine.vectorized.flat.accessor_path`).  Inputs are the same
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

def _guard_pack(ctx: BatchContext, out_spec: tuple) -> None:
    """Refuse a pair-code output once ids outgrow the 32-bit pack width."""
    if out_spec[0] == "pair" and ctx.interner.dense_size >= ID_LIMIT:
        raise FlatUnavailable("dense-id space exceeds the 32-bit pack limit")


def flat_map(ctx: BatchContext, source: SetVal, out_spec: tuple) -> SetVal:
    """``ext(\\x. {out})(source)`` where ``out`` is made of accessor paths."""
    it = ctx.interner
    _guard_pack(ctx, out_spec)
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
    dense_id, set_from_ids, pair = it.dense_id, it.set_from_ids, it.pair_from_ids
    out = [
        pair(k, dense_id(set_from_ids([ocol[r] for r in rows_of(k, ())])))
        for k in dict.fromkeys(keys)
    ]
    ctx.stats.bulk_maps += 1
    ctx.stats.flat_maps += 1
    ctx.stats.flat_dedups += len(out)
    return it.mkset(out)


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
    _guard_pack(ctx, ("pair",))
    scol = ctx.flat_column(source, spath)
    acol = None if apath is None else ctx.flat_column(source, apath)
    bcol = None if bpath is None else ctx.flat_column(source, bpath)
    value_of, set_ids = it.value_of, it.set_ids
    codes: list[int] = []
    for row, s in enumerate(scol):
        inner = value_of(s)
        if not isinstance(inner, SetVal):
            raise FlatUnavailable("non-set under the unnested path")
        ys = set_ids(inner)
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
    _guard_pack(ctx, out_spec)
    rows = None  # the kept row numbers, ascending
    if rhs[0] == "id" and not negate:
        index = ctx.select_index(source, lpath)
        if index is not None:
            rows = index.get(rhs[1], ())
    if rows is None:
        la = ctx.flat_column(source, lpath)
        mask = equal_mask(la, ctx.flat_column(source, rhs[1]) if rhs[0] == "path" else rhs[1])
        rows = [r for r, m in enumerate(mask) if m != negate]
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
    _guard_pack(ctx, out_spec)
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
