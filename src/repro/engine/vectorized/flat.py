"""Flat-column representation: dense-id arrays behind the batch kernels.

The object kernels of :mod:`repro.engine.vectorized.batch` are set-at-a-time
in *shape* but still element-at-a-time in *representation*: every probe is a
dict lookup keyed on ``id(value)`` and every output row materializes an
interned ``PairVal``.  This module supplies the flat alternative: a column is
an ``array('q')`` of **dense ids** (the interning-order integers
:meth:`~repro.engine.interning.InternTable.dense_id` assigns), a pair row is
the packed code ``(fst_id << 32) | snd_id``, and the kernels run integer
compares, integer hashing and integer set algebra, materializing canonical
``SetVal``/``PairVal`` objects only at plan boundaries
(:meth:`~repro.engine.interning.InternTable.set_from_ids` /
``set_from_pair_codes``).

Two layers live here:

* **accessor paths, walked**: :func:`follow_id` and :func:`set_column` run
  the column walks that :func:`repro.engine.shapes.accessor_path` reads off
  projection chains (``pi2(pi1(x))``), for the select/map/join kernels in
  ``batch.py`` and for the flat fixpoint;
* :class:`FlatLoop`: the semi-naive frontier loop over packed pair codes --
  the round structure of :func:`repro.recursion.iterators.seminaive_iterate`
  with the accumulator as a level-ordered queue: a derived code not yet
  seen is appended the moment it is derived, and a round is the level
  between two boundaries of the queue, so a round costs its rows, with no
  per-round set, sort or column split.  It is the one round loop of the
  compiling backends, run by the compiler's step runner for queries and
  views alike over the terms :func:`repro.engine.shapes.analyze_step`
  lowered (:class:`~repro.engine.shapes.FlatTermSpec`).  ``run`` goes to
  the fixpoint (or the iterator's budget) in one call, because a
  linear-depth recursion pays whatever a round costs once per unit of
  depth.  One cursor walks the queue, probing
  each row with the first frontier-left term; a level boundary costs a
  compare and the budget check, plus only the work some term needs there
  (an index rebuilt or grown, the level's join of every other term) and,
  with an observer, a clock read.  Per-term probe plans are resolved once
  per spec and the counters are added once per call.

Exactness contract: every helper either returns exactly what the object
kernel would, or raises :class:`FlatUnavailable` *before any observable
effect* so the caller can re-run the object kernel (which then raises the
canonical ``NRAEvalError`` if the input was genuinely ill-shaped).  A
``FlatUnavailable`` must never escape to user code.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from time import perf_counter
from typing import Callable, Optional

from ...nra.errors import NRAEvalError
from ...objects.values import SetVal
from ..interning import CODE_BITS
from ..shapes import FlatTermSpec


class FlatUnavailable(Exception):
    """Internal signal: this input cannot take the flat path.

    Raised by flat helpers before any observable effect; callers fall back to
    the object kernel (and count ``flat_fallbacks``).  Never user-visible.
    """


# ---------------------------------------------------------------------------
# Accessor paths, walked
# ---------------------------------------------------------------------------

def follow_id(parts: dict, dense: int, path: tuple[str, ...]) -> Optional[int]:
    """Walk ``path`` from dense id ``dense`` through the pair-part columns.

    Returns ``None`` when a step hits a non-pair (caller decides whether that
    is a fallback or an error).
    """
    for step in path:
        pq = parts.get(dense)
        if pq is None:
            return None
        dense = pq[0] if step == "f" else pq[1]
    return dense


def _follow_or_raise(parts: dict, by_dense: list, dense: int, path: tuple[str, ...]) -> int:
    """Like :func:`follow_id` but raises the object kernels' projection error."""
    for step in path:
        pq = parts.get(dense)
        if pq is None:
            op = "pi1" if step == "f" else "pi2"
            raise NRAEvalError(f"{op}: expected a pair, got {by_dense[dense]!r}")
        dense = pq[0] if step == "f" else pq[1]
    return dense


def set_column(it, ids: array, path: tuple[str, ...]) -> array:
    """The dense-id column of ``path`` over a set's element-id column ``ids``.

    Raises :class:`FlatUnavailable` when any element lacks the pair shape the
    path requires (the object kernel then reproduces the canonical error, or
    succeeds if the expression never actually projects that element).
    """
    parts = it.pair_parts()
    out = array("q", bytes(8 * len(ids)))
    for row, dense in enumerate(ids):
        j = follow_id(parts, dense, path)
        if j is None:
            raise FlatUnavailable(f"non-pair under path {path}")
        out[row] = j
    return out


# ---------------------------------------------------------------------------
# Flat fixpoint: the invariant-source index
# ---------------------------------------------------------------------------

def _inv_rows(it, ids, tag):
    """``(key id, (out_a id, out_b id))`` per element dense id of ``ids``."""
    parts, by_dense = it.pair_parts(), it._by_dense
    _, rkey, apath, bpath = tag
    for dense in ids:
        yield (
            _follow_or_raise(parts, by_dense, dense, rkey),
            (
                0 if apath is None else _follow_or_raise(parts, by_dense, dense, apath),
                0 if bpath is None else _follow_or_raise(parts, by_dense, dense, bpath),
            ),
        )


def build_inv_index(it, ids: array, tag: tuple) -> dict[int, list]:
    """Index a loop-invariant right source, given as its element-id column
    ``ids``: ``key id -> [(out_a id, out_b id)]``.

    ``tag`` is ``("inv", key path, out_a path, out_b path)``, a ``None`` path
    where the left row supplies the component (stored as 0).  No row is
    named, so the index can follow a commit by its delta alone.
    """
    index: dict[int, list] = {}
    setdefault = index.setdefault
    for rk, out in _inv_rows(it, ids, tag):
        setdefault(rk, []).append(out)
    return index


def patch_inv_index(index: dict, it, tag: tuple, dels: list, ins: list) -> dict[int, list]:
    """A copy of ``index`` moved by a row patch of ``InternTable.splice``.

    One C-level dict copy; only buckets the delta touches are copied and
    edited.  Equals the build over the advanced set up to the order inside a
    bucket, which no reader sees (a bucket's rows land in one output set).
    """
    gone = list(_inv_rows(it, [d for _, d in dels], tag))
    come = list(_inv_rows(it, [d for _, d in ins], tag))
    out = dict(index)
    for rk in {rk for rk, _ in gone + come}:
        out[rk] = list(out.get(rk, ()))
    for rk, row in gone:
        out[rk].remove(row)
    for rk, row in come:
        out[rk].append(row)
    for rk, _ in gone:
        if not out.get(rk, True):
            del out[rk]
    return out


# ---------------------------------------------------------------------------
# Flat fixpoint: runtime
# ---------------------------------------------------------------------------

def _codes(fs, ss):
    """Row-aligned fst/snd id columns as packed pair codes."""
    return ((f << CODE_BITS) | s for f, s in zip(fs, ss))


class _FlatTerm:
    """One flat join term inside a :class:`FlatLoop`: its spec and this run's
    index (and, for an invariant left side, its rows).  The static half of
    the probe plan lives on the spec (:attr:`FlatTermSpec.probe`)."""

    __slots__ = ("spec", "index", "inv_rows")

    def __init__(self, spec: FlatTermSpec):
        self.spec = spec
        self.index: dict[int, list] = {}
        self.inv_rows: list = []  # (lkey, la, lb) triples for an invariant left

    def plan(self) -> tuple:
        """What a join of the term reads: the index's ``get`` (the index is
        rebuilt or grown in place, so it stays bound), then the left key's
        path steps and, per output component, whether the left row supplies
        it and its path steps."""
        a_left, b_left, lk, _, oa, ob = self.spec.probe
        return (self.index.get, *lk, a_left, *oa, b_left, *ob)


#: The cursor's plan when no term's left rows are the frontier's (they all
#: join at the boundaries): an empty index, so every row it passes misses.
_IDLE_PLAN = ({}.get, True, (), True, True, (), True, True, ())


class FlatLoop:
    """Semi-naive frontier iteration over packed pair codes, as one queue.

    The accumulator columns are a level-ordered queue: the starting
    accumulator's rows, frontier last, then every derived row in the order
    it was derived.  A round is a *level* -- the rows between two
    boundaries -- and one cursor walks every level in turn.
    Construction + :meth:`setup` encode the starting accumulator with the
    frontier at its tail (the whole start for a strict step's round one,
    else what an object round one left) and build the per-term indexes;
    :meth:`run` then walks the queue to the fixpoint or the budget in one
    call.
    """

    def __init__(self, ctx, specs: list):
        self.ctx = ctx  # the BatchContext: interner, stats, set records
        self.it = it = ctx.interner
        self.stats = ctx.stats
        #: Rounds begun so far (a round that raised while deriving counts).
        self.rounds = 0
        self._parts = it.pair_parts()
        self._by_dense = it._by_dense
        self._specs = specs
        self._terms: list[_FlatTerm] = []
        #: Terms that join from round two on (see :meth:`setup`).
        self._mirrors: list[_FlatTerm] = []
        # The queue: fst and snd id columns, row-aligned, and their codes.
        self._acc_f: list[int] = []
        self._acc_s: list[int] = []
        self._acc_codes: set[int] = set()
        #: Where the frontier -- the level the next round walks -- begins.
        self._lo = 0

    # -- setup --------------------------------------------------------------------

    def _encode_rows(self, s: SetVal) -> tuple[list, list]:
        rows = list(map(self._parts.get, self.ctx.flat_column(s, ())))
        if None in rows:
            raise FlatUnavailable("non-pair accumulator element")
        return [f for f, _ in rows], [s for _, s in rows]

    def setup(self, acc: SetVal, delta: SetVal, inv_vals: list) -> None:
        """Encode state and build indexes.  ``delta`` is ``acc`` itself (a
        strict step's round one) or a subset of it (after an object round
        one).  ``inv_vals`` pairs up with the specs: ``(left_set_or_None,
        right_set_or_None)`` per term, evaluated by the caller in term order
        (matching the object path's evaluation order).  Raises
        :class:`FlatUnavailable` before any state is shared.
        """
        fs, ss = self._encode_rows(acc)
        if delta is not acc:
            # The frontier goes to the tail of the queue, behind the rest.
            df, ds = self._encode_rows(delta)
            front = set(_codes(df, ds))
            rest = [(f, s) for f, s in zip(fs, ss) if ((f << CODE_BITS) | s) not in front]
            fs = [f for f, _ in rest] + df
            ss = [s for _, s in rest] + ds
            self._lo = len(rest)
        self._acc_f, self._acc_s = fs, ss
        self._acc_codes = set(_codes(fs, ss))
        stats = self.stats
        for spec, (lval, rval) in zip(self._specs, inv_vals):
            if spec == "copy":
                continue
            if spec.left == "inv" and not lval.elements:
                continue  # the object join short-circuits an empty left side
            t = _FlatTerm(spec)
            if spec.left == "inv":
                t.inv_rows = self._inv_left_rows(spec, lval)
            if spec.right == "inv":
                # Shared with later runs over ``rval``: never mutated
                # (``_index_rows`` extends only acc/delta terms' indexes).
                a_left, b_left = spec.probe[:2]
                t.index = self.ctx.inv_index(rval, (
                    "inv", spec.rkey,
                    None if a_left else spec.out_a[1],
                    None if b_left else spec.out_b[1],
                ))
            elif spec.right == "acc":
                self._index_rows(t, fs, ss)
                stats.index_builds += 1
            self._terms.append(t)
        if delta is acc:
            # While the frontier is the accumulator, a bilinear step's
            # J(acc, delta) repeats its J(delta, acc): it joins from round two.
            specs = [t.spec for t in self._terms]
            self._mirrors = [
                t for t in self._terms
                if (t.spec.left, t.spec.right) == ("acc", "delta")
                and replace(t.spec, left="delta", right="acc") in specs
            ]
            self._terms = [t for t in self._terms if t not in self._mirrors]

    def _inv_left_rows(self, spec: FlatTermSpec, s: SetVal) -> list:
        a_left, b_left = spec.probe[:2]
        tag = ("inv", spec.lkey,
               spec.out_a[1] if a_left else None, spec.out_b[1] if b_left else None)
        ids = self.ctx.flat_column(s, ())
        return [(lk, la, lb) for lk, (la, lb) in _inv_rows(self.it, ids, tag)]

    def _index_rows(self, t: _FlatTerm, fs, ss) -> None:
        """Index (or extend the index of) pair rows by the right key path."""
        parts, by_dense = self._parts, self._by_dense
        a_left, b_left, _, (rk_f, rk_rest), (oa_f, oa_rest), (ob_f, ob_rest) = t.spec.probe
        setdefault = t.index.setdefault
        for f, s in zip(fs, ss):
            rk = f if rk_f else s
            if rk_rest:
                rk = _follow_or_raise(parts, by_dense, rk, rk_rest)
            ra = rb = 0
            if not a_left:
                ra = f if oa_f else s
                if oa_rest:
                    ra = _follow_or_raise(parts, by_dense, ra, oa_rest)
            if not b_left:
                rb = f if ob_f else s
                if ob_rest:
                    rb = _follow_or_raise(parts, by_dense, rb, ob_rest)
            setdefault(rk, []).append((ra, rb))

    # -- rounds -------------------------------------------------------------------

    def _join_rows(self, t: _FlatTerm, lo: int, hi: int) -> None:
        """One level ``[lo, hi)``'s join of a term the cursor does not probe
        with: a frontier-left term walks the level's rows, an
        accumulator-left one the queue up to the level's end, an
        invariant-left one its rows."""
        get, lk_f, lk_rest, a_left, oa_f, oa_rest, b_left, ob_f, ob_rest = t.plan()
        acc_f, acc_s, seen = self._acc_f, self._acc_s, self._acc_codes
        add, push_f, push_s = seen.add, acc_f.append, acc_s.append
        if t.spec.left == "inv":
            for k, la, lb in t.inv_rows:
                ms = get(k)
                if ms:
                    for ra, rb in ms:
                        a = la if a_left else ra
                        b = lb if b_left else rb
                        c = (a << CODE_BITS) | b
                        if c not in seen:
                            add(c)
                            push_f(a)
                            push_s(b)
            return
        parts, by_dense = self._parts, self._by_dense
        start = lo if t.spec.left == "delta" else 0
        for f, s in zip(acc_f[start:hi], acc_s[start:hi]):
            k = f if lk_f else s
            if lk_rest:
                k = _follow_or_raise(parts, by_dense, k, lk_rest)
            ms = get(k)
            if ms:
                la = lb = 0
                if a_left:
                    la = f if oa_f else s
                    if oa_rest:
                        la = _follow_or_raise(parts, by_dense, la, oa_rest)
                if b_left:
                    lb = f if ob_f else s
                    if ob_rest:
                        lb = _follow_or_raise(parts, by_dense, lb, ob_rest)
                for ra, rb in ms:
                    a = la if a_left else ra
                    b = lb if b_left else rb
                    c = (a << CODE_BITS) | b
                    if c not in seen:
                        add(c)
                        push_f(a)
                        push_s(b)

    def run(self, budget: int, on_round: Optional[Callable] = None) -> int:
        """Walk the queue with one cursor until it is drained or ``budget``
        levels are done.

        A derived code joins the accumulator the moment it is derived, at
        the queue's tail.  While level L is walked every code of level <= L
        is already there, so what is derived and new belongs to level L + 1:
        the levels are exactly the semi-naive rounds, with the same values,
        budget cut and counters.  The cursor probes each row it passes with
        the first frontier-left term, whose plan is unpacked once per run.
        Crossing a level boundary is a compare, the round count, the
        level's end and the budget check; the rest of the boundary work
        runs only for the terms that need it: the acc-side indexes grow by
        the level just derived, the held-back mirror term joins from round
        two, the frontier-side indexes are rebuilt from the new level, and
        every other term joins that level once (:meth:`_join_rows`).  Only
        with an observer is the clock read: ``on_round(seconds, round,
        frontier)`` reports each level walked, so a traced run executes the
        same loop.
        Returns the rounds completed by this call.  The counters follow
        from the levels begun and are added once, on the way out, also
        when a round raises (its joins count, the round itself does not --
        a raise while rebuilding counts nothing).
        """
        acc_f, acc_s, seen = self._acc_f, self._acc_s, self._acc_codes
        add, push_f, push_s = seen.add, acc_f.append, acc_s.append
        parts, by_dense = self._parts, self._by_dense
        terms, mirrors = self._terms, self._mirrors
        lead = next((t for t in terms if t.spec.left == "delta"), None)
        others = [t for t in terms if t is not lead]
        get, lk_f, lk_rest, a_left, oa_f, oa_rest, b_left, ob_f, ob_rest = (
            _IDLE_PLAN if lead is None else lead.plan())
        rebuilt = [t for t in terms if t.spec.right == "delta"]
        grown = [t for t in terms if t.spec.right == "acc"]
        n_terms, n_rebuilt, n_mirrors = len(terms), len(rebuilt), len(mirrors)
        refresh = bool(others or rebuilt or mirrors)  # work when a level begins
        first = rounds = self.rounds
        stop = first + budget
        # The level just walked is the empty one before the frontier; the
        # acc-side indexes already hold every row of the queue.
        lo = hi = i = self._lo
        indexed = len(acc_f)
        rebuilding = finished = False
        t0 = perf_counter() if on_round is not None else 0.0
        try:
            while True:
                if i == hi:  # the boundary after level [lo, hi)
                    end = len(acc_f)
                    if grown:
                        for t in grown:
                            self._index_rows(t, acc_f[indexed:end], acc_s[indexed:end])
                        indexed = end
                    if on_round is not None and rounds > first:
                        t1 = perf_counter()
                        on_round(t1 - t0, rounds, hi - lo)
                        t0 = t1
                    if rounds >= stop or end == hi:
                        break
                    lo, hi = hi, end
                    rounds += 1
                    if refresh:
                        if mirrors and rounds > 1:
                            rebuilt += mirrors  # the frontier left the accumulator
                            others += mirrors
                            mirrors = self._mirrors = []
                        if rebuilt:
                            rebuilding = True
                            for t in rebuilt:
                                t.index.clear()
                                self._index_rows(t, acc_f[lo:hi], acc_s[lo:hi])
                            rebuilding = False
                        for t in others:
                            self._join_rows(t, lo, hi)
                f = acc_f[i]
                s = acc_s[i]
                i += 1
                k = f if lk_f else s
                if lk_rest:
                    k = _follow_or_raise(parts, by_dense, k, lk_rest)
                ms = get(k)
                if ms:
                    la = lb = 0
                    if a_left:
                        la = f if oa_f else s
                        if oa_rest:
                            la = _follow_or_raise(parts, by_dense, la, oa_rest)
                    if b_left:
                        lb = f if ob_f else s
                        if ob_rest:
                            lb = _follow_or_raise(parts, by_dense, lb, ob_rest)
                    for ra, rb in ms:
                        a = la if a_left else ra
                        b = lb if b_left else rb
                        c = (a << CODE_BITS) | b
                        if c not in seen:
                            add(c)
                            push_f(a)
                            push_s(b)
            finished = True
        finally:
            self.rounds, self._lo = rounds, hi
            begun = rounds - first
            done = begun if finished else begun - 1
            # The levels whose joins began (not one whose rebuild raised),
            # and how many of them come after round one.
            joined = begun - 1 if rebuilding else begun
            later = joined - 1 if first == 0 and joined else joined
            joins = n_terms * joined + n_mirrors * later
            stats = self.stats
            stats.flat_rounds += done
            stats.flat_dedups += done
            stats.hash_joins += joins
            stats.flat_joins += joins
            stats.index_builds += n_rebuilt * joined + n_mirrors * later
            stats.index_hits += (n_terms - n_rebuilt) * later
        return done

    def materialize(self) -> SetVal:
        """The accumulator as a canonical interned set (the plan boundary)."""
        self.stats.flat_dedups += 1
        return self.it.set_from_pair_codes(self._acc_codes)
